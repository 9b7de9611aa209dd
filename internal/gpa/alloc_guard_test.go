//go:build !race

package gpa

import "testing"

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
