//go:build !race

package gpa

import (
	"strings"
	"testing"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// TestIngestSteadyStateZeroAlloc guards the 0 allocs/op claim the hot
// path benchmark makes: once a GPA has reached steady-state capacity,
// ingesting further batches must not allocate. The race detector
// instruments allocations, so the guard is built out under -race; this
// test is the whole guard, and CI runs it, with the other allocation
// guards, in a step without -race.
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	const batchSize = 512
	// Warm until every internal structure reaches its settled size: the
	// pending map, the node windows, and the correlated history's backing
	// array (it grows to its trim limit over the first several batches and
	// is reused from then on).
	const warmup = 32
	g := benchGPA()
	cols := benchColumns(batchSize)
	for i := 0; i < warmup; i++ {
		g.IngestColumns(cols)
	}
	if allocs := testing.AllocsPerRun(20, func() { g.IngestColumns(cols) }); allocs != 0 {
		t.Fatalf("steady-state IngestColumns allocates %.1f times per batch, want 0", allocs)
	}
}

var (
	sinkString string
	sinkHash   uint64
)

// TestHashFlowAllocs: the flow shard key every ingested row is routed by
// allocates nothing.
func TestHashFlowAllocs(t *testing.T) {
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 2042, Port: 43210}, Dst: simnet.Addr{Node: 1017, Port: 8080}}
	if allocs := testing.AllocsPerRun(100, func() { sinkHash = hashFlow(flow) }); allocs != 0 {
		t.Fatalf("hashFlow allocates %.2f times a call, want 0", allocs)
	}
}

// TestWriteRecentAllocatesOnlyItsStrings: a "recent" line costs at most
// the allocations of its three durations' String() calls (none, when the
// compiler keeps their results on the stack) — nothing for the flow,
// which is appended from a stack buffer, and nothing for putting the
// pieces together.
func TestWriteRecentAllocatesOnlyItsStrings(t *testing.T) {
	h := newFedHarness(t, 1, Config{})
	h.workload(1, 1)
	e := &h.shards[0].Correlated()[0]
	durations := testing.AllocsPerRun(100, func() {
		sinkString = e.Client.Residence().String()
		sinkString = e.Server.Residence().String()
		sinkString = e.NetworkDelay().String()
	})
	var sb strings.Builder
	sb.Grow(101 * 128) // every run's line fits: the builder does not grow
	line := testing.AllocsPerRun(100, func() { writeRecent(&sb, e) })
	if line > durations {
		t.Fatalf("writeRecent allocates %.0f times a line, its three durations' String() calls %.0f", line, durations)
	}
	if !strings.HasPrefix(sb.String(), e.Flow.String()+" client=") {
		t.Fatalf("line %.80q does not open with the flow %s", sb.String(), e.Flow)
	}
}

// TestPageDecodeAllocatesPerPage: decoding a shard's page into a
// recycled one costs the same allocations at 64 rows as at 256 — per
// page, not per row — and no more than it costs through the recycled
// reply reader, which leaves its records and the head's rows. The count
// is logged, so CI's log shows what a page costs.
func TestPageDecodeAllocatesPerPage(t *testing.T) {
	allocs := func(pairs int) float64 {
		g := benchGPA()
		g.IngestColumns(benchColumns(2 * pairs))
		reply, err := g.correlatedPage(0, pageFrameRows)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			page, err := decodeCorrelatedPage(reply)
			if err != nil || page.Len() != pairs {
				t.Fatalf("page of %d rows, err %v; want %d rows", page.Len(), err, pairs)
			}
			releasePage(page)
		})
	}
	small, large := allocs(64), allocs(256)
	t.Logf("page decode: %.0f allocs at 64 rows, %.0f at 256", small, large)
	if small != large {
		t.Fatalf("a 256-row page costs %.0f allocations to decode, a 64-row one %.0f", large, small)
	}
	if small > 9 {
		t.Fatalf("a page costs %.0f allocations to decode, want at most 9", small)
	}
}

// TestShardRepliesAllocs: a shard's reply costs one allocation to frame,
// the reply string's, and a decoded "pstats" reply costs three, what it
// decodes to: the record, the []StatsReply and the interface holding it.
// The base64 framing and the decoder are recycled.
func TestShardRepliesAllocs(t *testing.T) {
	reply := execute(t, seededGPA(t), "pstats")
	raw := make([]byte, len(reply)/4*3)
	if framing := testing.AllocsPerRun(100, func() { sinkString = encodeReply(raw) }); framing != 1 {
		t.Fatalf("framing a %d-byte reply allocates %.0f times, want 1", len(raw), framing)
	}
	decode := testing.AllocsPerRun(100, func() {
		if rows, err := decodeRows[StatsReply](reply, 1, 1); err != nil || rows[0].Ingested != 3 {
			t.Fatalf("pstats decoded to %+v, %v", rows, err)
		}
	})
	t.Logf("pstats reply: %.0f allocs to decode", decode)
	if decode != 3 {
		t.Fatalf("a pstats reply costs %.0f allocations to decode, want 3", decode)
	}
}

// TestClassesReadsOneNode: "classes <node>" on an analyzer reads that
// node's aggregates and no other's, so what it allocates does not grow
// with the number of other reporting nodes.
func TestClassesReadsOneNode(t *testing.T) {
	allocs := func(others int) float64 {
		g, _ := newGPA(Config{})
		for n := 0; n <= others; n++ {
			for _, class := range []string{"port:80", "nfs:read"} {
				g.IngestAggregate(simnet.NodeID(1+n), core.Aggregate{Class: class, Count: 3})
			}
		}
		return testing.AllocsPerRun(50, func() {
			reply, err := g.Execute("classes 1")
			if err != nil || !strings.HasPrefix(reply, "nfs:read count=3 ") {
				t.Fatalf("classes 1 = %q, %v", reply, err)
			}
		})
	}
	if alone, crowded := allocs(0), allocs(200); crowded > alone {
		t.Fatalf("classes 1 allocates %.0f times beside 200 other nodes, %.0f alone", crowded, alone)
	}
}
