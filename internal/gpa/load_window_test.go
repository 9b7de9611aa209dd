package gpa

import (
	"math/rand"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// bucketEdgeCutoff is the load window's cutoff at now rounded down to a
// bucket edge: LoadWindow/64 wide buckets, rounded up to a whole
// nanosecond, with floor division for cutoffs before time zero.
func bucketEdgeCutoff(window, now time.Duration) time.Duration {
	width := (window + loadBuckets - 1) / loadBuckets
	cutoff := now - window
	idx := cutoff / width
	if cutoff < 0 && cutoff%width != 0 {
		idx--
	}
	return idx * width
}

// loadTraffic is one batch of records on nodes 1..6 that completed up to
// 200 ms before now, out of order; one in four completes exactly at now.
func loadTraffic(rng *rand.Rand, now time.Duration, n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		node := simnet.NodeID(1 + rng.Intn(6))
		end := now - time.Duration(rng.Int63n(int64(200*time.Millisecond)))
		if rng.Intn(4) == 0 {
			end = now
		}
		recs[i] = core.Record{
			ID: rng.Uint64(), Node: node, Class: "port:80",
			Flow: simnet.FlowKey{
				Src: simnet.Addr{Node: node, Port: uint16(1024 + rng.Intn(64))},
				Dst: simnet.Addr{Node: 100, Port: 80},
			},
			// Start after End now and then: a residence of zero.
			Start:       end - time.Duration(rng.Int63n(int64(20*time.Millisecond))) + time.Millisecond,
			End:         end,
			ProtoTime:   time.Duration(rng.Intn(50_000)),
			TxTime:      time.Duration(rng.Intn(50_000)),
			SyscallTime: time.Duration(rng.Intn(50_000)),
			BufferWait:  time.Duration(rng.Intn(2_000_000)),
		}
	}
	return recs
}

// TestServerLoadMatchesSampleOracle: the bucketed load window answers
// exactly what the per-sample window answers with its cutoff rounded down
// to a bucket edge — the count and all three means — whether the records
// came in through IngestColumns or the row oracle, for a window that is a
// multiple of 64 ns, one that is not, and one 1 ns wide. The clock starts
// inside the first window, so the early cutoffs are before time zero.
func TestServerLoadMatchesSampleOracle(t *testing.T) {
	for _, window := range []time.Duration{100 * time.Millisecond, time.Second + 7, 1} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{Shards: 4, LoadWindow: window}
			g, gNow := newGPA(cfg)
			o, oNow := newGPA(cfg)
			samples := sampleWindows{}
			check := func(now time.Duration) {
				t.Helper()
				*gNow, *oNow = now, now
				cutoff := bucketEdgeCutoff(window, now)
				for node := simnet.NodeID(1); node <= 7; node++ {
					want := samples.load(node, cutoff)
					if got := g.ServerLoad(node); got != want {
						t.Fatalf("window %v seed %d now %v node %d: IngestColumns %+v, per-sample %+v",
							window, seed, now, node, got, want)
					}
					if got := o.ServerLoad(node); got != want {
						t.Fatalf("window %v seed %d now %v node %d: row oracle %+v, per-sample %+v",
							window, seed, now, node, got, want)
					}
				}
			}
			cols := core.NewRecordColumns(64)
			now := 50 * time.Millisecond
			counted := 0
			for step := 0; step < 300; step++ {
				now += time.Duration(rng.Int63n(int64(7 * time.Millisecond)))
				*gNow, *oNow = now, now
				batch := loadTraffic(rng, now, rng.Intn(64))
				cols.Reset()
				for i := range batch {
					cols.Append(&batch[i])
				}
				g.IngestColumns(cols)
				o.ingestRows(batch, samples)
				check(now)
				counted += samples.load(1, bucketEdgeCutoff(window, now)).Interactions
			}
			if counted == 0 {
				t.Fatalf("window %v seed %d: node 1 never had load", window, seed)
			}
			// Queries at later times, the last past every record.
			for _, later := range []time.Duration{1, window / 3, window / 2, window, 2 * window} {
				check(now + later)
			}
			if l := g.ServerLoad(1); l.Interactions != 0 {
				t.Fatalf("window %v seed %d: load two windows on: %+v", window, seed, l)
			}
		}
	}
}

// TestLoadDropsSampleOlderThanOldestBucket: a record that completed
// before the bucket the cutoff falls in counts nowhere and opens no
// bucket; one in that bucket counts even though it is before the cutoff.
func TestLoadDropsSampleOlderThanOldestBucket(t *testing.T) {
	const window = 64 * time.Millisecond // 1 ms buckets
	g, now := newGPA(Config{Shards: 1, LoadWindow: window})
	*now = time.Second + 500*time.Microsecond // cutoff in bucket 936
	rec := serverRec(1, 0)
	for _, end := range []time.Duration{*now, 935*time.Millisecond + 999*time.Microsecond, 936 * time.Millisecond} {
		rec.Start, rec.End = end-time.Millisecond, end
		g.Ingest(rec)
	}
	if l := g.ServerLoad(rec.Node); l.Interactions != 2 {
		t.Fatalf("load %+v, want the record in the cutoff's bucket and the current one", l)
	}
	s := &g.shards[0]
	if nw := s.byNode[rec.Node]; len(nw.buckets) != 2 || nw.buckets[0].idx != 936 {
		t.Fatalf("window buckets %+v, want buckets 936 and 1000", nw.buckets)
	}
}

// TestFederatedLoadMatchesSampleOracle: "jload" through a two-shard
// frontend is each shard's per-sample answer, merged the way the frontend
// merges (counts summed, means re-weighted by count), and the monolithic
// analyzer fed the same records answers the per-sample load of them all.
func TestFederatedLoadMatchesSampleOracle(t *testing.T) {
	const window = 100 * time.Millisecond
	h := newFedHarness(t, 2, Config{LoadWindow: window})
	rng := rand.New(rand.NewSource(7))
	perShard := []sampleWindows{{}, {}}
	all := sampleWindows{}
	check := func(now time.Duration) {
		t.Helper()
		h.clock.Store(int64(now))
		cutoff := bucketEdgeCutoff(window, now)
		for node := simnet.NodeID(1); node <= 6; node++ {
			want := Load{Node: node}
			var res, ker, buf time.Duration
			for _, samples := range perShard {
				p := samples.load(node, cutoff)
				w := time.Duration(p.Interactions)
				want.Interactions += p.Interactions
				res += p.MeanResidence * w
				ker += p.MeanKernel * w
				buf += p.MeanBufferWait * w
			}
			if want.Interactions > 0 {
				n := time.Duration(want.Interactions)
				want.MeanResidence, want.MeanKernel, want.MeanBufferWait = res/n, ker/n, buf/n
			}
			got, st, err := h.fe.ServerLoad(node)
			if err != nil || st.Partial {
				t.Fatalf("jload %d: %+v %v", node, st, err)
			}
			if got != want {
				t.Fatalf("now %v node %d: frontend %+v, per-sample merge %+v", now, node, got, want)
			}
			if got, want := h.mono.ServerLoad(node), all.load(node, cutoff); got != want {
				t.Fatalf("now %v node %d: monolithic %+v, per-sample %+v", now, node, got, want)
			}
		}
	}
	now := time.Second
	for step := 0; step < 40; step++ {
		now += time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		h.clock.Store(int64(now))
		for _, rec := range loadTraffic(rng, now, 32) {
			h.ingest(rec)
			perShard[rec.Flow.ShardHash()%2].add(&rec)
			all.add(&rec)
		}
		if step%8 == 0 {
			check(now)
		}
	}
	if perShard[0].load(1, 0).Interactions == 0 || perShard[1].load(1, 0).Interactions == 0 {
		t.Fatal("node 1's records all landed on one shard")
	}
	for _, later := range []time.Duration{0, window / 2, window} {
		check(now + later)
	}
}
