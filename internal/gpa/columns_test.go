package gpa

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// equivalenceTraffic builds one seeded random record stream that leans on
// every branch the row oracle and the columnar correlator must agree on:
// client/server pairs over a small flow space (so flows recur and pending
// residue carries across batches), halves of a pair separated by a random
// number of unrelated records (so batch boundaries split pairs), missing
// server sides, same-node bursts deeper than MaxPending (overflow
// eviction), and pairs from poorly synced nodes whose start skew exceeds
// the base correlation window — some inside the window once both nodes'
// clock bounds widen it, some still outside. Timestamps stay within a
// second of `now`, so stale sweeps run on both sides but prune nothing
// (sweep timing is the one documented deviation between the paths).
func equivalenceTraffic(rng *rand.Rand, now time.Duration, n int) []core.Record {
	type delayed struct {
		at  int
		rec core.Record
	}
	var out []core.Record
	var later []delayed
	flush := func() {
		kept := later[:0]
		for _, d := range later {
			if d.at <= len(out) {
				out = append(out, d.rec)
			} else {
				kept = append(kept, d)
			}
		}
		later = kept
	}
	classes := []string{"port:80", "port:443", "db"}
	for id := uint64(1); len(out) < n; id++ {
		fl := simnet.FlowKey{
			Src: simnet.Addr{Node: simnet.NodeID(1 + rng.Intn(6)), Port: uint16(1024 + rng.Intn(40))},
			Dst: simnet.Addr{Node: simnet.NodeID(10 + rng.Intn(4)), Port: 80},
		}
		start := now - time.Second + time.Duration(rng.Intn(900))*time.Millisecond
		client := core.Record{
			ID: id, Node: fl.Src.Node, Flow: fl, Class: classes[rng.Intn(len(classes))],
			Start: start, End: start + time.Duration(1+rng.Intn(5))*time.Millisecond,
			ReqBytes: rng.Intn(4096), RespBytes: rng.Intn(1 << 16),
			UserTime: time.Duration(rng.Intn(500)) * time.Microsecond, ServerProc: "client",
		}
		var skew time.Duration
		switch rng.Intn(10) {
		case 0: // beyond the base window, inside it once nodes 3 and 12 widen it
			skew = 70 * time.Millisecond
		case 1: // beyond any widened window: never correlates
			skew = 400 * time.Millisecond
		default:
			skew = time.Duration(rng.Intn(2000)) * time.Microsecond
		}
		server := core.Record{
			ID: 1_000_000 + id, Node: fl.Dst.Node, Flow: fl, Class: client.Class,
			Start: start + skew, End: start + skew + time.Millisecond,
			BufferWait:  time.Duration(rng.Intn(200)) * time.Microsecond,
			SyscallTime: 20 * time.Microsecond, ProtoTime: 5 * time.Microsecond,
			ServerPID: int32(rng.Intn(100)), ServerProc: "httpd",
		}
		switch k := rng.Intn(12); {
		case k == 0: // same-node burst on one flow: overflows MaxPending
			for j, depth := 0, 3+rng.Intn(8); j < depth; j++ {
				burst := client
				burst.ID = id<<20 + uint64(j)
				burst.Start += time.Duration(j) * time.Microsecond
				out = append(out, burst)
			}
			later = append(later, delayed{len(out) + rng.Intn(40), server})
		case k < 3: // server side lost
			out = append(out, client)
		case k < 5: // server observed first
			out = append(out, server)
			later = append(later, delayed{len(out) + rng.Intn(120), client})
		default:
			out = append(out, client)
			later = append(later, delayed{len(out) + rng.Intn(120), server})
		}
		flush()
	}
	return out
}

// TestColumnarRowEquivalence is the differential test that holds the one
// shipping ingest path to the row oracle (row_oracle_test.go): for each
// seed, identical traffic goes record by record through ingestLocked,
// through IngestColumns in randomly sized batches, and through the
// one-row Ingest adapter; all three analyzers must end byte-identical —
// the correlated dump, the counters, the pending residue, and every
// line-protocol query the federation tier issues.
func TestColumnarRowEquivalence(t *testing.T) {
	const now = time.Hour
	cfg := Config{
		Shards: 2, MaxPending: 4, MaxCorrelated: 800,
		CorrelationWindow: 50 * time.Millisecond,
		StaleAfter:        2 * time.Second, // older than any record: sweeps run, prune nothing
	}
	build := func() *GPA {
		g, clock := newGPA(cfg)
		*clock = now
		g.SetClockErrorBound(3, 15*time.Millisecond)
		g.SetClockErrorBound(12, 10*time.Millisecond)
		return g
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		traffic := equivalenceTraffic(rng, now, 6000)

		oracle := build()
		oracle.ingestRows(traffic, nil)

		batched := build()
		cols := core.NewRecordColumns(128)
		splitPair := false
		for i := 0; i < len(traffic); {
			size := 1 + rng.Intn(127)
			if i+size > len(traffic) {
				size = len(traffic) - i
			}
			cols.Reset()
			for j := i; j < i+size; j++ {
				cols.Append(&traffic[j])
			}
			batched.IngestColumns(cols)
			i += size
			splitPair = splitPair || batched.PendingCount() > 0
		}
		if !splitPair {
			t.Fatalf("seed %d: no batch ever ended with pending residue", seed)
		}

		single := build()
		for _, r := range traffic {
			single.Ingest(r)
		}

		want := oracle.StatsSnapshot()
		if want.Correlated == 0 || want.Uncorrelated == 0 || want.CorrelatedEvicted == 0 || want.StalePruned != 0 {
			t.Fatalf("seed %d: traffic missed a branch: %+v", seed, want)
		}
		var wantDump bytes.Buffer
		if _, err := oracle.Dump(&wantDump); err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]*GPA{"IngestColumns": batched, "Ingest": single} {
			if got := g.StatsSnapshot(); got != want {
				t.Fatalf("seed %d: %s stats %+v, row oracle %+v", seed, name, got, want)
			}
			if got, w := g.PendingCount(), oracle.PendingCount(); got != w {
				t.Fatalf("seed %d: %s pending %d, row oracle %d", seed, name, got, w)
			}
			var dump bytes.Buffer
			if _, err := g.Dump(&dump); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dump.Bytes(), wantDump.Bytes()) {
				t.Fatalf("seed %d: %s correlated dump differs from the row oracle (%d vs %d bytes)",
					seed, name, dump.Len(), wantDump.Len())
			}
			for _, q := range []string{
				"stats", "nodes", "accounting", "recent 50",
				"load 10", "classes 10", "jstats", "jclasses", "jcorrelated 50",
			} {
				wantReply, wantErr := oracle.Execute(q)
				gotReply, gotErr := g.Execute(q)
				if (wantErr == nil) != (gotErr == nil) || wantReply != gotReply {
					t.Fatalf("seed %d: %s query %q differs:\noracle: %s (%v)\n   got: %s (%v)",
						seed, name, q, wantReply, wantErr, gotReply, gotErr)
				}
			}
		}
	}
}

// TestPendingCapacityShrinksAfterBurstDrains is the regression test for
// pending-slice capacity retention: a burst grows a flow's pending
// backing array, and once the burst goes stale and drains, the sweep must
// hand the few live records a right-sized array instead of keeping the
// high-water allocation alive for the rest of the flow's life.
func TestPendingCapacityShrinksAfterBurstDrains(t *testing.T) {
	g, now := newGPA(Config{Shards: 1, StaleAfter: 50 * time.Millisecond})
	*now = time.Hour

	// Same-node records never correlate, so the burst sits in pending.
	const burst = 512
	for i := 0; i < burst; i++ {
		g.Ingest(core.Record{
			ID: uint64(i), Node: 1, Flow: flow, Class: "port:80",
			Start: *now, End: *now + time.Millisecond,
		})
	}
	key := flow.Canonical()
	s := g.shardFor(key)
	s.mu.Lock()
	grown := cap(s.pending[key])
	s.mu.Unlock()
	if grown < burst {
		t.Fatalf("burst grew pending cap to %d, want >= %d", grown, burst)
	}

	// The burst ages out; two fresh records keep the flow alive.
	*now += time.Second
	for i := 0; i < 2; i++ {
		g.Ingest(core.Record{
			ID: uint64(burst + i), Node: 1, Flow: flow, Class: "port:80",
			Start: *now, End: *now + time.Millisecond,
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	g.sweepStaleLocked(s)
	peers := s.pending[key]
	if len(peers) != 2 {
		t.Fatalf("pending len after sweep = %d, want 2", len(peers))
	}
	if cap(peers) > grown/4 {
		t.Fatalf("pending cap after sweep = %d, want <= %d (burst high-water array still pinned)",
			cap(peers), grown/4)
	}
}
