package gpa

import (
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// noMatch marks a run row that completed no correlation in this batch.
// Matched rows carry either a non-negative run-row index or a bit-inverted
// residue index (^ri) of the pending record they paired with.
const noMatch = int32(-1 << 31)

// nodeCacheSize is the direct-mapped per-shard cache of per-node
// bookkeeping state (power of two). byNode and byClass entries are
// created once and never replaced or deleted, so cached pointers can
// never go stale; a slot collision just re-probes the maps.
const nodeCacheSize = 64

// nodeCacheEntry caches the three map lookups the per-record bookkeeping
// sweep would otherwise repeat for every row of a node: its load window,
// its class table, and the aggregate of the class it reported last.
type nodeCacheEntry struct {
	node    simnet.NodeID
	nw      *nodeWindow
	classes map[string]*core.Aggregate
	class   string
	agg     *core.Aggregate
}

// flowGroup is one canonical flow's slice of a same-shard run: a linked
// list of its rows (through batchCorrelator.next), the pending residue
// carried in from the map, and the survivor range carried back out.
type flowGroup struct {
	key            simnet.FlowKey
	head, tail     int32
	survLo, survHi int32
	had            bool
	orig           []core.Record
}

// batchCorrelator is per-shard scratch for the vectorized columnar
// correlation path. Everything is guarded by the shard mutex and reused
// across runs, so steady-state batches touch no allocator: slices grow to
// the largest run the shard has seen and stay there.
type batchCorrelator struct {
	// per-row state for the current run (parallel to rows lo..hi).
	keys     []simnet.FlowKey // canonical flow key
	hashes   []uint64         // shard hash (reused as the group-table hash)
	rowGroup []int32          // flow group owning the row
	next     []int32          // next row of the same flow (-1 = end)
	matchRef []int32          // match result (run row, ^residue, or noMatch)

	// open-addressing table mapping flow key -> group, sized to the run.
	slots []int32 // group index + 1; 0 = empty

	groups []flowGroup
	surv   []int32 // survivor refs of all groups, by [survLo:survHi)

	// candidate scratch for one flow's sequential-match simulation. The
	// hot comparison columns (node, start) are split out so the window
	// scan sweeps 2+8 bytes per candidate instead of a 240-byte Record.
	candRef   []int32
	candNode  []simnet.NodeID
	candStart []time.Duration

	nodeCache [nodeCacheSize]nodeCacheEntry
}

// growInt32 returns scratch of length n, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		//lint:ignore hotalloc scratch grows to the largest run length once; steady-state batches reuse it
		return make([]int32, n)
	}
	return s[:n]
}

// IngestColumns feeds one columnar record batch — a drained dissemination
// buffer in structure-of-arrays form — into correlation. Shard routing
// sweeps the packed Flow column in a tight loop (the only column the
// router touches), and each consecutive same-shard run is correlated as a
// unit by correlateRunLocked: rows are never materialized one at a time
// and the pending map is probed once per flow, not once per record.
//
//sysprof:nonblocking
func (g *GPA) IngestColumns(cols *core.RecordColumns) {
	n := cols.Len()
	for i := 0; i < n; {
		key := cols.Flows[i].Canonical()
		h := hashFlow(key)
		s := &g.shards[h&g.mask]
		s.mu.Lock()
		c := &s.corr
		c.keys = append(c.keys[:0], key)
		c.hashes = append(c.hashes[:0], h)
		j := i + 1
		for ; j < n; j++ {
			nk := cols.Flows[j].Canonical()
			nh := hashFlow(nk)
			if &g.shards[nh&g.mask] != s {
				break
			}
			c.keys = append(c.keys, nk)
			c.hashes = append(c.hashes, nh)
		}
		g.correlateRunLocked(s, cols, i, j)
		s.mu.Unlock()
		i = j
	}
}

// correlateRunLocked ingests rows [lo,hi) of a columnar batch — one
// same-shard run whose canonical keys and hashes the caller staged in
// s.corr — producing exactly the matches, residue, statistics, and
// sequence order ingesting the rows one at a time would (that sequential
// definition is ingestLocked, kept in row_oracle_test.go as the oracle
// TestColumnarRowEquivalence holds this function to). Correlation state
// is flow-local, so the run is regrouped by flow and each flow's records
// are replayed against its own candidates:
//
//	A: group rows by canonical flow key (open addressing over the run).
//	B: per flow, load pending residue once and simulate sequential
//	   matching on compact (node, start) candidate columns.
//	C: one row-order sweep does bookkeeping and emits matches, so global
//	   sequence numbers land in the same order as one-at-a-time ingest.
//	D: per flow, write surviving candidates back to the pending map.
//
// Two deliberate deviations from the sequential oracle, both invisible to
// the query surface: the stale sweep runs on run boundaries instead of
// mid-run (the counter still advances per record), and a flow whose rows
// all matched within the run never creates an empty pending entry (the
// oracle creates one and lets the sweep delete it).
//
//sysprof:nonblocking
func (g *GPA) correlateRunLocked(s *shard, cols *core.RecordColumns, lo, hi int) {
	c := &s.corr
	n := hi - lo

	// Phase A: bucket the run's rows by canonical flow. The table is
	// sized to the run (load factor <= 1/2) and indexed by the upper bits
	// of the shard hash — every key in a run shares the hash's low bits
	// by construction.
	tsize := 8
	for tsize < 2*n {
		tsize <<= 1
	}
	c.slots = growInt32(c.slots, tsize)
	for i := range c.slots {
		c.slots[i] = 0
	}
	mask := uint64(tsize - 1)
	c.rowGroup = growInt32(c.rowGroup, n)
	c.next = growInt32(c.next, n)
	c.matchRef = growInt32(c.matchRef, n)
	c.groups = c.groups[:0]
	for rel := 0; rel < n; rel++ {
		key := c.keys[rel]
		idx := (c.hashes[rel] >> 16) & mask
		var gi int32
		for {
			v := c.slots[idx]
			if v == 0 {
				gi = int32(len(c.groups))
				c.slots[idx] = gi + 1
				//lint:ignore hotalloc scratch grows to the largest flow count once; steady-state batches reuse it
				c.groups = append(c.groups, flowGroup{key: key, head: int32(rel), tail: int32(rel)})
				break
			}
			if grp := &c.groups[v-1]; grp.key == key {
				gi = v - 1
				c.next[grp.tail] = int32(rel)
				grp.tail = int32(rel)
				break
			}
			idx = (idx + 1) & mask
		}
		c.rowGroup[rel] = gi
		c.next[rel] = -1
	}

	// Phase B: per flow, replay the run's rows against the carried-in
	// residue plus earlier unmatched rows of the same flow. This is the
	// sequential algorithm restricted to one flow — which loses nothing,
	// because records of different flows never interact — with the
	// oldest-first window scan reading 10-byte candidate columns.
	var bounds map[simnet.NodeID]time.Duration
	if bp := g.clockBounds.Load(); bp != nil {
		bounds = *bp
	}
	cw := g.cfg.CorrelationWindow
	maxPending := g.cfg.MaxPending
	c.surv = c.surv[:0]
	for gi := range c.groups {
		grp := &c.groups[gi]
		orig, had := s.pending[grp.key]
		grp.orig, grp.had = orig, had
		c.candRef = c.candRef[:0]
		c.candNode = c.candNode[:0]
		c.candStart = c.candStart[:0]
		for ri := range orig {
			//lint:ignore hotalloc candidate scratch grows to the deepest pending flow once; steady-state batches reuse it
			c.candRef = append(c.candRef, int32(^ri))
			c.candNode = append(c.candNode, orig[ri].Node)
			c.candStart = append(c.candStart, orig[ri].Start)
		}
		for rel := grp.head; rel >= 0; rel = c.next[rel] {
			row := lo + int(rel)
			node := cols.Nodes[row]
			start := cols.Starts[row]
			var recBound time.Duration
			if bounds != nil {
				recBound = bounds[node]
			}
			matched := false
			for ci := 0; ci < len(c.candRef); ci++ {
				if c.candNode[ci] == node {
					continue
				}
				window := cw
				if bounds != nil {
					window += recBound + bounds[c.candNode[ci]]
				}
				if absDur(c.candStart[ci]-start) > window {
					continue
				}
				c.matchRef[rel] = c.candRef[ci]
				// Ordered removal, as in the sequential oracle: later
				// records must see the remaining candidates oldest-first.
				c.candRef = c.candRef[:ci+copy(c.candRef[ci:], c.candRef[ci+1:])]
				c.candNode = c.candNode[:ci+copy(c.candNode[ci:], c.candNode[ci+1:])]
				c.candStart = c.candStart[:ci+copy(c.candStart[ci:], c.candStart[ci+1:])]
				matched = true
				break
			}
			if !matched {
				c.matchRef[rel] = noMatch
				if cnt := len(c.candRef); cnt >= maxPending {
					// Drop the oldest, exactly as the sequential oracle
					// evicts at insert time; each eviction counted once.
					drop := cnt - maxPending + 1
					c.candRef = c.candRef[:copy(c.candRef, c.candRef[drop:])]
					c.candNode = c.candNode[:copy(c.candNode, c.candNode[drop:])]
					c.candStart = c.candStart[:copy(c.candStart, c.candStart[drop:])]
					s.stats.Uncorrelated += uint64(drop)
				}
				c.candRef = append(c.candRef, rel)
				c.candNode = append(c.candNode, node)
				c.candStart = append(c.candStart, start)
			}
		}
		grp.survLo = int32(len(c.surv))
		//lint:ignore hotalloc survivor scratch grows to the run's residue high-water once; steady-state batches reuse it
		c.surv = append(c.surv, c.candRef...)
		grp.survHi = int32(len(c.surv))
	}

	// Phase C: one sweep in row order does the per-record bookkeeping and
	// emits matches. Emitting here — not in phase B — keeps the global
	// sequence counter in batch row order of the completing record, which
	// is the order the sequential oracle assigns. Per-node map probes are
	// memoized through the shard's node cache; the load window's oldest
	// live bucket is read once per run (the clock does not move within
	// one).
	s.stats.Ingested += uint64(n)
	oldest := g.oldestLoadBucket()
	for rel := 0; rel < n; rel++ {
		row := lo + rel
		node := cols.Nodes[row]
		ce := &c.nodeCache[int(node)&(nodeCacheSize-1)]
		if ce.nw == nil || ce.node != node {
			nw := s.byNode[node]
			if nw == nil {
				nw = &nodeWindow{}
				s.byNode[node] = nw
			}
			classes := s.byClass[node]
			if classes == nil {
				classes = make(map[string]*core.Aggregate)
				s.byClass[node] = classes
			}
			*ce = nodeCacheEntry{node: node, nw: nw, classes: classes}
		}
		class := cols.Classes[row]
		agg := ce.agg
		if agg == nil || ce.class != class {
			agg = ce.classes[class]
			if agg == nil {
				agg = &core.Aggregate{Class: class}
				ce.classes[class] = agg
			}
			ce.class, ce.agg = class, agg
		}
		end := cols.Ends[row]
		res := end - cols.Starts[row]
		if res < 0 {
			res = 0
		}
		bufw := cols.BufferWaits[row]
		ker := cols.ProtoTimes[row] + bufw + cols.SyscallTimes[row] + cols.TxTimes[row]
		ce.nw.add(g.bucketOf(end), oldest, res, ker, bufw)
		agg.Count++
		agg.TotalResidence += res
		agg.TotalUser += cols.UserTimes[row]
		agg.TotalKernel += ker
		agg.TotalBlocked += cols.BlockedTimes[row]
		agg.TotalBufWait += bufw
		agg.ReqBytes += uint64(cols.ReqBytes[row])
		agg.RespBytes += uint64(cols.RespBytes[row])
		if res > agg.MaxResidence {
			agg.MaxResidence = res
		}

		ref := c.matchRef[rel]
		if ref == noMatch {
			continue
		}
		// Fill the new history slot in place: every field of the slot is
		// overwritten (CopyRow and the residue copy write whole records),
		// so extending over a stale trimmed entry is safe, and the pair
		// never round-trips through 240-byte stack temporaries.
		t := g.nextCorrelatedLocked(s)
		t.seq = g.seq.Add(1)
		t.e2e.Flow = cols.Flows[row]
		// The record observed at the flow's destination node is the
		// server side.
		var recDst, peerDst *core.Record
		if node == t.e2e.Flow.Dst.Node {
			recDst, peerDst = &t.e2e.Server, &t.e2e.Client
		} else {
			recDst, peerDst = &t.e2e.Client, &t.e2e.Server
		}
		cols.CopyRow(recDst, row)
		if ref >= 0 {
			cols.CopyRow(peerDst, lo+int(ref))
		} else {
			*peerDst = c.groups[c.rowGroup[rel]].orig[int(^ref)]
		}
		s.stats.Correlated++
		g.trimCorrelatedLocked(s)
	}

	// Phase D: write each flow's surviving candidates back. Residue
	// survivors precede run-row survivors (insertion order is preserved),
	// so compacting left into the original backing array never overwrites
	// a residue record before it is read; phase C has already copied any
	// matched residue into the correlated history.
	for gi := range c.groups {
		grp := &c.groups[gi]
		orig := grp.orig
		out := orig[:0]
		for _, ref := range c.surv[grp.survLo:grp.survHi] {
			if ref >= 0 {
				//lint:ignore hotalloc pending append reuses the flow's backing array; growth only past its high-water
				out = append(out, core.Record{})
				cols.CopyRow(&out[len(out)-1], lo+int(ref))
			} else {
				out = append(out, orig[int(^ref)])
			}
		}
		if cap(out) == cap(orig) && len(out) < len(orig) {
			// Same backing array: zero the dropped tail so evicted and
			// matched records release their string references.
			tail := orig[len(out):len(orig)]
			for i := range tail {
				tail[i] = core.Record{}
			}
		}
		if grp.had || len(out) > 0 {
			s.pending[grp.key] = out
		}
		grp.orig = nil
	}

	if s.sinceSweep += n; s.sinceSweep >= staleSweepEvery {
		s.sinceSweep = 0
		g.sweepStaleLocked(s)
	}
}
