package pubsub

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
)

// colsPool recycles the scratch column batches built for filtered local
// delivery and shard partitioning, so the steady-state columnar publish
// path allocates nothing.
var colsPool = sync.Pool{New: func() any { return &core.RecordColumns{} }}

// columnsPlanCache caches the encode plan for core.Record-shaped
// columnar batches, resolved from the registry on first use.
type columnsPlanCache struct {
	plan atomic.Pointer[pbio.Plan]
}

// planCacheEntry is one resolved type→plan pair for the broker's
// single-entry encode-plan cache.
type planCacheEntry struct {
	t reflect.Type
	p *pbio.Plan
}

var coreRecordType = reflect.TypeOf(core.Record{})

func (b *Broker) columnsPlan() *pbio.Plan {
	if p := b.colsPlan.plan.Load(); p != nil {
		return p
	}
	p := b.reg.PlanFor(coreRecordType)
	if p != nil {
		b.colsPlan.plan.Store(p)
	}
	return p
}

// PublishColumns delivers a columnar record batch — the dissemination
// daemon's buffer-drain path in structure-of-arrays form. Local
// subscribers receive the *core.RecordColumns itself (valid only for the
// duration of the callback); filtered locals receive a freshly built
// sub-batch, with the filter invoked once per row on a transient
// *core.Record that is reused between rows. Remote subscribers receive
// one frame encoded by column sweeps — compressed (0x05) on links that
// negotiated it, plain (0x04) otherwise. Shard routing hashes the Flow
// column directly in a tight loop (the same ShardHash every flow router
// uses), never materializing rows.
//
// core.Record must be registered in the broker's registry (dissem's
// RegisterFormats does this).
func (b *Broker) PublishColumns(channelName string, cols *core.RecordColumns) error {
	n := cols.Len()
	if n == 0 {
		return nil
	}
	if b.closed.Load() {
		return ErrClosed
	}
	b.published.Add(1)
	b.batchesPublished.Add(1)
	subs := b.lookupChannel(channelName)
	if subs == nil {
		return nil
	}

	for _, s := range subs.locals {
		if s.filter == nil {
			s.fn(cols)
			b.localDeliver.Add(uint64(n))
			continue
		}
		kept := colsPool.Get().(*core.RecordColumns)
		kept.Reset()
		var row core.Record
		for i := 0; i < n; i++ {
			row = cols.Row(i)
			if s.filter(&row) {
				kept.AppendRow(row)
			}
		}
		if kept.Len() > 0 {
			s.fn(kept)
			b.localDeliver.Add(uint64(kept.Len()))
		}
		colsPool.Put(kept)
	}

	remotes := subs.remotes
	if len(remotes) == 0 {
		return nil
	}
	plan := b.columnsPlan()
	if plan == nil {
		return fmt.Errorf("pubsub: no encode plan for %s (register the type)", coreRecordType)
	}
	if !hasSharded(remotes) {
		return b.fanOutColumns(channelName, plan, cols, remotes)
	}
	return b.publishColumnsSharded(channelName, plan, cols, remotes)
}

// fanOutColumns encodes at most two shared frames for one subscriber
// set — compressed columnar for links that negotiated wire compression,
// plain columnar for the rest — and fans each out.
func (b *Broker) fanOutColumns(channelName string, plan *pbio.Plan, cols *core.RecordColumns, remotes []*remoteConn) error {
	compressed, plain := splitByCompression(remotes, b.wireCompress.Load())
	groups := [...]struct {
		subset     []*remoteConn
		compressed bool
	}{
		{compressed, true},
		{plain, false},
	}
	var firstErr error
	for _, g := range groups {
		if len(g.subset) == 0 {
			continue
		}
		f, err := b.encodeColumnsFrame(channelName, plan, cols, g.compressed)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		b.fanOut(g.subset, f)
	}
	return firstErr
}

// Gather appends to dst the rows of src that belong to this selector's
// shard — the partition sweep: one ShardHash per row over the packed flow
// column (the same hash every flow router uses), only matching rows
// copied. The broker and the scenario harness both route with it.
func (s ShardSelector) Gather(dst, src *core.RecordColumns) {
	for i := range src.Flows {
		if s.Match(src.Flows[i].ShardHash()) {
			dst.AppendRow(src.Row(i))
		}
	}
}

// publishColumnsSharded partitions the batch across shard selectors by
// sweeping the Flow column: one ShardHash per row, one scratch sub-batch
// per distinct selector. Unsharded subscribers share a frame of the
// whole batch.
func (b *Broker) publishColumnsSharded(channelName string, plan *pbio.Plan, cols *core.RecordColumns, remotes []*remoteConn) error {
	var firstErr error
	for _, grp := range groupBySelector(remotes) {
		part := cols
		var scratch *core.RecordColumns
		if grp.sel.Count != 0 {
			scratch = colsPool.Get().(*core.RecordColumns)
			scratch.Reset()
			grp.sel.Gather(scratch, cols)
			if scratch.Len() == 0 {
				colsPool.Put(scratch)
				continue // nothing in this batch for that shard
			}
			part = scratch
		}
		if err := b.fanOutColumns(channelName, plan, part, grp.remotes); err != nil && firstErr == nil {
			firstErr = err
		}
		if scratch != nil {
			colsPool.Put(scratch)
		}
	}
	return firstErr
}

// splitByCompression cuts a fan-out set into the links that get
// compressed frames and the links that get plain ones (compressOK carries
// the broker knob). No partitioning happens here: insertRemote keeps
// every remotes slice ordered compressed-first, and sub-slices and
// order-preserving filters of one (shard groups, dropConn) inherit the
// order, so the cut is a single index.
//
//sysprof:nonblocking
//sysprof:noalloc
func splitByCompression(remotes []*remoteConn, compressOK bool) (compressed, plain []*remoteConn) {
	if !compressOK {
		return nil, remotes
	}
	nZ := 0
	for nZ < len(remotes) && remotes[nZ].columnsZ {
		nZ++
	}
	return remotes[:nZ], remotes[nZ:]
}

// encodeColumnsFrame builds the shared wire frame for one columnar
// publish: channel header plus the 0x05 compressed or 0x04 plain
// columnar frame.
func (b *Broker) encodeColumnsFrame(channelName string, p *pbio.Plan, cols *core.RecordColumns, compressed bool) (*frame, error) {
	f := framePool.Get().(*frame)
	f.buf = appendString(f.buf[:0], channelName)
	f.hdrLen = len(f.buf)
	f.channel = channelName
	var err error
	if compressed {
		f.buf, f.recs, err = p.AppendCompressedColumnsFrame(f.buf, cols)
	} else {
		f.buf, f.recs, err = p.AppendColumnsFrame(f.buf, cols)
	}
	if err != nil {
		//lint:ignore atomicmix frame is not yet shared: released by this goroutine before any writer sees it
		f.refs = 1
		f.release()
		return nil, err
	}
	f.format = p.Format()
	return f, nil
}
