package gpa

import (
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// The row correlator, kept as the reference the columnar path is held
// to. correlateRunLocked regroups a batch by flow and replays each flow
// on compact candidate columns; its contract is "exactly what ingesting
// the same records one at a time would have produced", and this file is
// that one-at-a-time definition. It shares every piece of state and every
// helper (shards, pending map, trim, sweep) with the shipping code, so
// the differential test in columns_test.go compares two correlation
// algorithms and nothing else.
//
// It also keeps the per-sample load window the time buckets replaced
// (sampleWindows): load_window_test.go holds ServerLoad to it.

// ingestRows feeds records through the row oracle in order, one lock
// round trip per record. A non-nil samples also keeps every record's
// per-sample load, the reference the bucketed load window is held to.
func (g *GPA) ingestRows(recs []core.Record, samples sampleWindows) {
	for _, rec := range recs {
		key := rec.Flow.Canonical()
		s := g.shardFor(key)
		s.mu.Lock()
		g.ingestLocked(s, key, rec, samples)
		s.mu.Unlock()
	}
}

// ingestLocked is the sequential per-record ingest step, verbatim from
// the row path IngestColumns replaced; callers hold s.mu and pass the
// record's canonical flow key.
func (g *GPA) ingestLocked(s *shard, key simnet.FlowKey, rec core.Record, samples sampleWindows) {
	s.stats.Ingested++

	// Per-node window and per-class aggregates.
	nw := s.byNode[rec.Node]
	if nw == nil {
		nw = &nodeWindow{}
		s.byNode[rec.Node] = nw
	}
	nw.add(g.bucketOf(rec.End), g.oldestLoadBucket(), rec.Residence(), rec.KernelTime(), rec.BufferWait)
	if samples != nil {
		samples.add(&rec)
	}

	classes := s.byClass[rec.Node]
	if classes == nil {
		classes = make(map[string]*core.Aggregate)
		s.byClass[rec.Node] = classes
	}
	agg := classes[rec.Class]
	if agg == nil {
		agg = &core.Aggregate{Class: rec.Class}
		classes[rec.Class] = agg
	}
	agg.Add(&rec)

	if s.sinceSweep++; s.sinceSweep >= staleSweepEvery {
		s.sinceSweep = 0
		g.sweepStaleLocked(s)
	}

	// Correlation: the same interaction observed at the other endpoint
	// shares the canonical flow and a nearby start timestamp. The window
	// for each candidate pair is the configured base widened by both
	// nodes' registered clock-error bounds, so a pair whose residual NTP
	// offset exceeds the global constant still correlates.
	var bounds map[simnet.NodeID]time.Duration
	var recBound time.Duration
	if bp := g.clockBounds.Load(); bp != nil {
		bounds = *bp
		recBound = bounds[rec.Node]
	}
	peers := s.pending[key]
	for i, p := range peers {
		if p.Node == rec.Node {
			continue
		}
		window := g.cfg.CorrelationWindow
		if bounds != nil {
			window += recBound + bounds[p.Node]
		}
		if absDur(p.Start-rec.Start) > window {
			continue
		}
		// Matched: the record observed at the flow's destination node is
		// the server side.
		e2e := EndToEnd{Flow: rec.Flow}
		if rec.Node == rec.Flow.Dst.Node {
			e2e.Server, e2e.Client = rec, p
		} else {
			e2e.Server, e2e.Client = p, rec
		}
		*g.nextCorrelatedLocked(s) = seqE2E{seq: g.seq.Add(1), e2e: e2e}
		s.stats.Correlated++
		g.trimCorrelatedLocked(s)
		kept := append(peers[:i], peers[i+1:]...)
		peers[len(kept)] = core.Record{} // release the shifted-out tail copy
		// Keep the entry even when it empties: hot flows alternate between
		// one pending record and none, and deleting the map entry on every
		// match would cost a fresh slice allocation and bucket insert on
		// the very next ingest. The stale sweep deletes entries still empty
		// when it runs, so quiet flows do not accumulate.
		s.pending[key] = kept
		return
	}
	if n := len(peers); n >= g.cfg.MaxPending {
		// Drop the oldest in place: shift-copy within the backing array so
		// the evicted records' string references are actually released and
		// the array is reused at its current size. Reslicing with
		// peers[1:] instead would pin every dropped record in the backing
		// array until the next growth reallocation and churn per-key
		// arrays through repeated grow-copy cycles.
		drop := n - g.cfg.MaxPending + 1
		m := copy(peers, peers[drop:])
		for i := m; i < n; i++ {
			peers[i] = core.Record{}
		}
		peers = peers[:m]
		s.stats.Uncorrelated += uint64(drop) // each eviction counted once
	}
	s.pending[key] = append(peers, rec)
}

// loadSample is one record's share of a node's load: what the per-node
// window held for every record before load was kept in time buckets.
type loadSample struct {
	end, res, ker, buf time.Duration
}

// sampleWindows is the per-sample load reference: every sample the row
// oracle ingested, by node, never pruned.
type sampleWindows map[simnet.NodeID][]loadSample

func (w sampleWindows) add(rec *core.Record) {
	w[rec.Node] = append(w[rec.Node], loadSample{
		end: rec.End, res: rec.Residence(), ker: rec.KernelTime(), buf: rec.BufferWait,
	})
}

// load is ServerLoad over the samples of node that completed at or after
// cutoff, with ServerLoad's arithmetic.
func (w sampleWindows) load(node simnet.NodeID, cutoff time.Duration) Load {
	l := Load{Node: node}
	var res, ker, buf time.Duration
	for _, sm := range w[node] {
		if sm.end < cutoff {
			continue
		}
		l.Interactions++
		res += sm.res
		ker += sm.ker
		buf += sm.buf
	}
	if l.Interactions > 0 {
		n := time.Duration(l.Interactions)
		l.MeanResidence, l.MeanKernel, l.MeanBufferWait = res/n, ker/n, buf/n
	}
	return l
}
