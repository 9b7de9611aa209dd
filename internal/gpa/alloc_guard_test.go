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
// instruments allocations, so the guard is built out under -race.
// sysproflint's hotalloc analyzer enforces the same invariant statically
// via the //sysprof:noalloc annotations.
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	const batchSize = 512
	// Warm until every internal structure reaches its settled size: the
	// pending map, the node windows, and the correlated-history ring
	// (MaxCorrelated entries fill over the first several batches).
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

var sinkString string

// TestWriteRecentAllocatesOnlyItsStrings: a "recent" line costs the
// allocations of the four String() calls it is made of (the flow and
// three durations) and none for putting them together — no formatter
// state, no boxed operands.
func TestWriteRecentAllocatesOnlyItsStrings(t *testing.T) {
	h := newFedHarness(t, 1, Config{})
	h.workload(1, 1)
	e := &h.shards[0].Correlated()[0]
	strs := testing.AllocsPerRun(100, func() {
		sinkString = e.Flow.String()
		sinkString = e.Client.Residence().String()
		sinkString = e.Server.Residence().String()
		sinkString = e.NetworkDelay().String()
	})
	var sb strings.Builder
	sb.Grow(101 * 128) // every run's line fits: the builder does not grow
	line := testing.AllocsPerRun(100, func() { writeRecent(&sb, e) })
	if line > strs {
		t.Fatalf("writeRecent allocates %.0f times a line, its four String() calls %.0f", line, strs)
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
