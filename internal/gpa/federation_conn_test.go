package gpa

import (
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sysprof/internal/lineproto"
)

// fullStats asks the frontend for "stats" and requires an answer from
// every shard.
func fullStats(t *testing.T, fe *Frontend) {
	t.Helper()
	out, err := fe.Execute("stats")
	if err != nil || strings.Contains(out, "! partial") {
		t.Fatalf("stats = %q, %v; want a full answer", out, err)
	}
}

// TestFrontendKeepsShardConnections: a hundred queries over two shards
// cost two dials.
func TestFrontendKeepsShardConnections(t *testing.T) {
	h := newFedHarness(t, 2, Config{})
	h.workload(8, 2)
	for i := 0; i < 25; i++ {
		for _, q := range []string{"stats", "recent 4", "jclasses", "bogus"} {
			_, err := h.fe.Execute(q)
			if (err != nil) != (q == "bogus") {
				t.Fatalf("%q: %v", q, err)
			}
		}
	}
	// An error reply is a reply: the connection that carried it is kept.
	if _, err := h.fe.Execute("retention -1"); err == nil {
		t.Fatal("retention -1 accepted")
	}
	fullStats(t, h.fe)
	if d0, d1 := h.dialed(0), h.dialed(1); d0 != 1 || d1 != 1 {
		t.Fatalf("dials = %d, %d; want 1, 1", d0, d1)
	}
}

// TestFrontendRedialsRestartedShard: a shard that went away and came back
// between two queries costs the second one a re-dial, not a partial
// answer; while it is away the answer is partial.
func TestFrontendRedialsRestartedShard(t *testing.T) {
	h := newFedHarness(t, 2, Config{})
	h.workload(8, 2)
	fullStats(t, h.fe)

	h.kill(1)
	h.revive(1)
	fullStats(t, h.fe)
	if d0, d1 := h.dialed(0), h.dialed(1); d0 != 1 || d1 != 2 {
		t.Fatalf("dials after the restart = %d, %d; want 1, 2", d0, d1)
	}

	h.kill(1)
	out, err := h.fe.Execute("stats")
	if err != nil || !strings.HasSuffix(out, "\n! partial: 1/2 shards answered; dead: 1 (connection refused)") {
		t.Fatalf("stats with shard 1 down = %q, %v; want the refused dial reported", out, err)
	}
}

// TestFrontendSilentShardCostsOneTimeout: a shard that takes commands on a
// kept connection and stops answering is given one query timeout — a
// deadline is not the stale-connection failure, so nothing is re-dialed.
func TestFrontendSilentShardCostsOneTimeout(t *testing.T) {
	const timeout = 150 * time.Millisecond
	var dials, asked atomic.Int32
	release := make(chan struct{})
	defer close(release)
	fe, err := NewFrontend([]string{"mute"}, WithQueryTimeout(timeout), WithDialFunc(func(string) (net.Conn, error) {
		dials.Add(1)
		c1, c2 := net.Pipe()
		go func() {
			defer c2.Close()
			lineproto.ServeConn(c2, func(string) (string, error) {
				if asked.Add(1) > 1 {
					<-release // the reply never comes
				}
				return "ingested=0", nil
			})
		}()
		return c1, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if _, st := fanOut(fe, "stats", asText); st.Partial {
		t.Fatalf("first query: %+v", st)
	}
	start := time.Now()
	replies, _ := fanOut(fe, "stats", asText)
	took := time.Since(start)
	if !errors.Is(replies[0].err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent shard: err = %v, want the deadline", replies[0].err)
	}
	if took < timeout || dials.Load() != 1 || asked.Load() != 2 {
		t.Fatalf("silent shard took %v over %d dials and %d commands; want one %v timeout on the kept connection",
			took, dials.Load(), asked.Load(), timeout)
	}
}

// TestFrontendConcurrentExecute: callers share the idle connections
// without sharing a connection in use.
func TestFrontendConcurrentExecute(t *testing.T) {
	h := newFedHarness(t, 3, Config{})
	h.workload(12, 4)
	want, err := h.fe.Execute("recent 20")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := h.fe.Execute("recent 20"); err != nil || got != want {
					t.Errorf("concurrent recent: %q, %v; want %q", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if open, most := h.open(), len(h.shards)*maxIdlePerShard; open < len(h.shards) || open > most {
		t.Errorf("%d connections kept for %d shards, want at least one each and at most %d", open, len(h.shards), most)
	}
	h.fe.Close()
	if open := h.open(); open != 0 {
		t.Errorf("%d connections still open after Close", open)
	}
}

// TestFrontendRetiresConnections: Close closes the idle connections,
// twice is once, and the frontend after it dials afresh.
func TestFrontendRetiresConnections(t *testing.T) {
	h := newFedHarness(t, 2, Config{})
	h.workload(8, 2)
	fullStats(t, h.fe)
	if open := h.open(); open != 2 {
		t.Fatalf("%d connections open after one query over 2 shards", open)
	}
	fullStats(t, h.fe)
	if d0, d1 := h.dialed(0), h.dialed(1); d0 != 1 || d1 != 1 {
		t.Fatalf("dials = %d, %d; want the kept connection to each shard reused", d0, d1)
	}

	h.fe.Close()
	h.fe.Close()
	if open := h.open(); open != 0 {
		t.Fatalf("%d connections open after Close", open)
	}
	fullStats(t, h.fe)
	if d0, d1 := h.dialed(0), h.dialed(1); d0 != 2 || d1 != 2 {
		t.Fatalf("dials = %d, %d; want a fresh dial to each shard after Close", d0, d1)
	}
}

// benchFrontend serves two shards of 256 interactions each on loopback
// TCP and returns a frontend over them, counting its dials.
func benchFrontend(b *testing.B) (*Frontend, *atomic.Int64) {
	var endpoints []string
	dials := new(atomic.Int64)
	for i := 0; i < 2; i++ {
		g := benchGPA()
		g.IngestColumns(benchColumns(512))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		go g.Serve(l)
		endpoints = append(endpoints, l.Addr().String())
	}
	fe, err := NewFrontend(endpoints, WithDialFunc(func(addr string) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout("tcp", addr, time.Second)
	}))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fe.Close)
	return fe, dials
}

// benchQueries runs query once, then b.N times, timed, and reports the
// dials the timed runs made.
func benchQueries(b *testing.B, dials *atomic.Int64, query func()) {
	query()
	dials.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	b.ReportMetric(float64(dials.Load())/float64(b.N), "dials/op")
}

// BenchmarkFrontendRecent is the federated read path over real sockets:
// "recent 200" against two shards serving on loopback TCP, 256
// interactions each. dials/op is 0 once the first query has run.
func BenchmarkFrontendRecent(b *testing.B) {
	fe, dials := benchFrontend(b)
	benchQueries(b, dials, func() {
		out, err := fe.Execute("recent 200")
		if n := strings.Count(out, "\n") + 1; err != nil || n != 200 {
			b.Fatalf("recent 200: %d lines, %v", n, err)
		}
	})
}

// BenchmarkFrontendRows is the merge of typed rows over the same two
// shards: one op is "stats", "load 2" and "classes 2", each a fan-out of
// a row reply, its decode and the merge.
func BenchmarkFrontendRows(b *testing.B) {
	fe, dials := benchFrontend(b)
	benchQueries(b, dials, func() {
		for _, q := range [...]string{"stats", "load 2", "classes 2"} {
			if out, err := fe.Execute(q); err != nil || out == "" || strings.Contains(out, "! partial") {
				b.Fatalf("%s: %q, %v", q, out, err)
			}
		}
	})
}
