package gpa

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// BenchmarkGPAIngestParallel measures concurrent ingest throughput at
// different shard counts. shards=1 is the old single-mutex analyzer (every
// subscriber goroutine serializes on one lock); the default stripe count
// should scale with GOMAXPROCS-many ingesting goroutines. Each iteration
// ingests a correlating client/server pair, so the benchmark exercises the
// full hot path: node window, class aggregate, pending insert, and match.
func BenchmarkGPAIngestParallel(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkIngestParallel(b, shards)
		})
	}
}

// benchBatch builds a steady-state ingest workload: pairs of correlating
// client/server records across a rotating set of flows, delivered in
// batches of the dissemination buffer's default size.
func benchBatch(n int) []core.Record {
	const base = time.Hour
	recs := make([]core.Record, 0, n)
	for i := 0; len(recs) < n; i++ {
		flow := simnet.FlowKey{
			Src: simnet.Addr{Node: 1, Port: uint16(1024 + i%512)},
			Dst: simnet.Addr{Node: 2, Port: 80},
		}
		start := base - 10*time.Millisecond
		recs = append(recs, core.Record{
			ID: uint64(i), Node: flow.Src.Node, Flow: flow, Class: "port:80",
			Start: start, End: start + 2*time.Millisecond,
			ServerProc: "httpd",
		})
		if len(recs) < n {
			recs = append(recs, core.Record{
				ID: uint64(i), Node: flow.Dst.Node, Flow: flow, Class: "port:80",
				Start: start + time.Millisecond, End: start + 2*time.Millisecond,
				BufferWait: 100 * time.Microsecond, ServerProc: "httpd",
			})
		}
	}
	return recs
}

func benchGPA() *GPA {
	const base = time.Hour
	return New(Config{
		CorrelationWindow: 5 * time.Millisecond,
		LoadWindow:        time.Millisecond, // node windows drain immediately
		MaxCorrelated:     1 << 12,          // steady-state history, not unbounded growth
		// Disable the amortized stale sweep (cutoff never goes positive) so
		// the benchmark measures the per-record ingest path, not the
		// periodic empty-entry reclamation it interleaves.
		StaleAfter: 2 * base,
	}, func() time.Duration { return base })
}

// benchColumns is benchBatch in the columnar form ingest takes.
func benchColumns(n int) *core.RecordColumns {
	cols := core.NewRecordColumns(n)
	for _, r := range benchBatch(n) {
		cols.Append(&r)
	}
	return cols
}

// BenchmarkIngestColumns is the single-goroutine ingest hot path: one
// drained dissemination buffer per iteration, every record correlating
// with its pair.
func BenchmarkIngestColumns(b *testing.B) {
	g := benchGPA()
	cols := benchColumns(512)
	g.IngestColumns(cols) // warm caches and reach steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.IngestColumns(cols)
	}
	b.StopTimer()
}

func benchmarkIngestParallel(b *testing.B, shards int) {
	const base = time.Hour
	g := New(Config{
		Shards:            shards,
		CorrelationWindow: 5 * time.Millisecond,
		LoadWindow:        time.Millisecond, // node windows drain immediately
	}, func() time.Duration { return base })
	var worker atomic.Uint32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := simnet.NodeID(worker.Add(1))
		batch := core.NewRecordColumns(2)
		i := 0
		for pb.Next() {
			flow := simnet.FlowKey{
				Src: simnet.Addr{Node: w, Port: uint16(1024 + i%512)},
				Dst: simnet.Addr{Node: 256 + w%16, Port: 80},
			}
			start := base - 10*time.Millisecond
			batch.Reset()
			batch.Append(&core.Record{
				ID: uint64(i), Node: flow.Src.Node, Flow: flow, Class: "port:80",
				Start: start, End: start + 2*time.Millisecond,
			})
			batch.Append(&core.Record{
				ID: uint64(i), Node: flow.Dst.Node, Flow: flow, Class: "port:80",
				Start: start + time.Millisecond, End: start + 2*time.Millisecond,
				BufferWait: 100 * time.Microsecond,
			})
			g.IngestColumns(batch)
			i++
		}
	})
}

// BenchmarkCorrelatedPage is one federated page pull without the socket:
// a shard renders its 256-interaction history as a "pcorrelated" reply
// (gather from the stripes, order by completion, encode head and halves)
// and the frontend decodes and validates it — the step that runs once per
// shard per correlated query.
func BenchmarkCorrelatedPage(b *testing.B) {
	g := benchGPA()
	g.IngestColumns(benchColumns(512)) // 256 correlating pairs
	if n := len(g.Correlated()); n != 256 {
		b.Fatalf("history holds %d interactions, want 256", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reply, err := g.correlatedPage(0, pageFrameRows)
		if err != nil {
			b.Fatal(err)
		}
		page, err := decodeCorrelatedPage(reply)
		if err != nil {
			b.Fatal(err)
		}
		if page.Len() != 256 {
			b.Fatalf("page of %d rows, want 256", page.Len())
		}
	}
}
