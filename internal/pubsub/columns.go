package pubsub

import (
	"fmt"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
)

// PublishColumns delivers one batch — the dissemination daemon's buffer
// drains and its per-flush aggregate deltas alike. Local subscribers
// receive the batch itself (valid only for the duration of the callback);
// filtered locals receive the sub-batch their filter keeps, with the
// filter asked once per row. Remote subscribers receive one frame encoded
// by column sweeps — compressed (0x05) on links that negotiated it, plain
// (0x04) otherwise — holding, for a sharded subscriber, only the rows the
// batch's own routing key puts in its shard.
//
// The batch's row type must be registered in the broker's registry
// (dissem's RegisterFormats does this).
func (b *Broker) PublishColumns(channelName string, batch core.Batch) error {
	n := batch.Len()
	if n == 0 {
		return nil
	}
	if b.closed.Load() {
		return ErrClosed
	}
	b.published.Add(1)
	subs := b.lookupChannel(channelName)
	if subs == nil {
		return nil
	}

	for _, s := range subs.locals {
		if s.filter == nil {
			s.fn(batch)
			b.localDeliver.Add(uint64(n))
			continue
		}
		kept := batch.Keep(s.filter)
		if k := kept.Len(); k > 0 {
			s.fn(kept)
			b.localDeliver.Add(uint64(k))
		}
		kept.Release()
	}

	remotes := subs.remotes
	if len(remotes) == 0 {
		return nil
	}
	if !hasSharded(remotes) {
		return b.fanOutColumns(channelName, batch, remotes)
	}
	// One scratch sub-batch per distinct selector; unsharded subscribers
	// share a frame of the whole batch.
	var firstErr error
	for _, grp := range groupBySelector(remotes) {
		part := batch
		if grp.sel.Count != 0 {
			part = batch.Shard(grp.sel)
		}
		if part.Len() > 0 { // else nothing in this batch for that shard
			if err := b.fanOutColumns(channelName, part, grp.remotes); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if grp.sel.Count != 0 {
			part.Release()
		}
	}
	return firstErr
}

// fanOutColumns encodes at most two shared frames for one subscriber
// set — compressed columnar for links that negotiated wire compression,
// plain columnar for the rest — and fans each out.
func (b *Broker) fanOutColumns(channelName string, batch core.Batch, remotes []*remoteConn) error {
	plan, cols := batch.Columns(b.reg)
	if plan == nil {
		return fmt.Errorf("pubsub: no encode plan for %T (register its row type)", batch)
	}
	compressed, plain := splitByCompression(remotes)
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

// splitByCompression cuts a fan-out set into the links that get
// compressed frames and the links that get plain ones. No partitioning
// happens here: insertRemote keeps every remotes slice ordered
// compressed-first, and sub-slices and order-preserving filters of one
// (shard groups, dropConn) inherit the order, so the cut is a single
// index.
//
//sysprof:nonblocking
//sysprof:noalloc
func splitByCompression(remotes []*remoteConn) (compressed, plain []*remoteConn) {
	nZ := 0
	for nZ < len(remotes) && remotes[nZ].columnsZ {
		nZ++
	}
	return remotes[:nZ], remotes[nZ:]
}

// encodeColumnsFrame builds the shared wire frame for one columnar
// publish: channel header plus the 0x05 compressed or 0x04 plain
// columnar frame.
func (b *Broker) encodeColumnsFrame(channelName string, p *pbio.Plan, cols pbio.CompressedColumnAppender, compressed bool) (*frame, error) {
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
