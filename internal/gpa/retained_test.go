//go:build !race

package gpa

import (
	"testing"
	"time"
	"unsafe"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// retainedBytes is what a GPA's correlated history and load windows hold
// in backing arrays, summed over its stripes.
func retainedBytes(g *GPA) (history, buckets int) {
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		history += cap(s.correlated) * int(unsafe.Sizeof(seqE2E{}))
		for _, nw := range s.byNode {
			buckets += cap(nw.buckets) * int(unsafe.Sizeof(loadBucket{}))
		}
		s.mu.Unlock()
	}
	return history, buckets
}

// ingestPairs ingests correlating client/server pairs at pairsPerSec over
// span of virtual time from *now on, in 10 ms batches: clients 10..41,
// servers 1..4.
func ingestPairs(g *GPA, now *time.Duration, pairsPerSec int, span time.Duration) {
	const step = 10 * time.Millisecond
	perStep := pairsPerSec * int(step) / int(time.Second)
	cols := core.NewRecordColumns(2 * perStep)
	id := uint64(0)
	for end := *now + span; *now < end; *now += step {
		cols.Reset()
		for i := 0; i < perStep; i++ {
			id++
			fl := simnet.FlowKey{
				Src: simnet.Addr{Node: simnet.NodeID(10 + id%32), Port: uint16(1024 + id%4096)},
				Dst: simnet.Addr{Node: simnet.NodeID(1 + id%4), Port: 80},
			}
			start := *now - 5*time.Millisecond + time.Duration(i)*step/time.Duration(perStep)
			cols.Append(&core.Record{ID: id, Node: fl.Src.Node, Flow: fl, Class: "port:80",
				Start: start, End: start + 2*time.Millisecond})
			cols.Append(&core.Record{ID: id, Node: fl.Dst.Node, Flow: fl, Class: "port:80",
				Start: start + time.Millisecond/2, End: start + 3*time.Millisecond/2})
		}
		g.IngestColumns(cols)
	}
}

// TestRetainedStateIndependentOfRate: the same span of virtual time at 1x
// and 20x the record rate leaves the history and the load windows inside
// the bound their configuration sets — at most loadBuckets+1 buckets a
// window, one for a node seen once, and a stripe's history array no
// larger than its trim limit plus one — and lowering MaxCorrelated
// releases the old high-water arrays at the next trim.
func TestRetainedStateIndependentOfRate(t *testing.T) {
	const (
		maxCorrelated = 4096
		shards        = 16
		nodes         = 32 + 4 + 1
		span          = 3 * time.Second
	)
	bucketBound := nodes * shards * (loadBuckets + 1) * int(unsafe.Sizeof(loadBucket{}))
	for _, rate := range []int{500, 20 * 500} {
		g, now := newGPA(Config{
			Shards: shards, LoadWindow: time.Second, MaxCorrelated: maxCorrelated,
			CorrelationWindow: 5 * time.Millisecond,
		})
		*now = time.Second
		ingestPairs(g, now, rate, span)
		g.Ingest(core.Record{Node: 999, Flow: flow, Class: "port:80", Start: *now, End: *now})

		pc := int(g.perShardCap.Load())
		historyBound := shards * (trimLimit(pc) + 1) * int(unsafe.Sizeof(seqE2E{}))
		for i := range g.shards {
			s := &g.shards[i]
			if c := cap(s.correlated); c > trimLimit(pc)+1 {
				t.Fatalf("%d pairs/s: stripe %d history cap %d, trim limit %d", rate, i, c, trimLimit(pc))
			}
			for node, nw := range s.byNode {
				if len(nw.buckets) > loadBuckets+1 || cap(nw.buckets) > loadBuckets+1 {
					t.Fatalf("%d pairs/s: node %d window holds %d buckets (cap %d)",
						rate, node, len(nw.buckets), cap(nw.buckets))
				}
				if node == 999 && (len(nw.buckets) != 1 || cap(nw.buckets) != 1) {
					t.Fatalf("node seen once holds %d buckets (cap %d), want 1", len(nw.buckets), cap(nw.buckets))
				}
			}
		}
		history, buckets := retainedBytes(g)
		t.Logf("%5d pairs/s for %v: history %d B (bound %d), load buckets %d B (bound %d) per GPA",
			rate, span, history, historyBound, buckets, bucketBound)
		if history > historyBound || buckets > bucketBound {
			t.Fatalf("%d pairs/s: retained state over its configured bound", rate)
		}

		if err := g.SetMaxCorrelated(maxCorrelated / 16); err != nil {
			t.Fatal(err)
		}
		ingestPairs(g, now, rate, 100*time.Millisecond)
		limit := trimLimit(int(g.perShardCap.Load()))
		for i := range g.shards {
			if c := cap(g.shards[i].correlated); c > limit+1 {
				t.Fatalf("%d pairs/s: stripe %d keeps a %d-entry history array after the cap fell to trim limit %d",
					rate, i, c, limit)
			}
		}
	}
}
