package scenario

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// runTwice executes the spec twice and asserts byte-identical reports —
// the seed discipline every scenario must satisfy.
func runTwice(t *testing.T, spec Spec) *Report {
	t.Helper()
	rep1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	buf1, err := rep1.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := rep2.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1, buf2) {
		t.Fatalf("same seed produced different reports:\n--- run 1:\n%s\n--- run 2:\n%s", buf1, buf2)
	}
	return rep1
}

func TestHappySmallCleanRun(t *testing.T) {
	spec := Builtins()["happy-small"]
	rep := runTwice(t, spec)
	if err := rep.Check(spec.Guard); err != nil {
		t.Fatal(err)
	}
	if rep.UnaccountedRecords != 0 || rep.UnaccountedRequests != 0 {
		t.Fatalf("unaccounted loss on the happy path: records=%d requests=%d",
			rep.UnaccountedRecords, rep.UnaccountedRequests)
	}
	if rep.Workload.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Net.Dropped != 0 {
		t.Fatalf("happy path dropped %d packets", rep.Net.Dropped)
	}
	if rep.Fanout.Offered == 0 || rep.Fanout.Offered != rep.Monitor.RecordsPublished {
		t.Fatalf("routing lost records: offered=%d published=%d",
			rep.Fanout.Offered, rep.Monitor.RecordsPublished)
	}
	if rep.CorrelationRatePct < 90 {
		t.Fatalf("correlation rate %.1f%% < 90%% with no chaos", rep.CorrelationRatePct)
	}
	if rep.Queries.Partial != 0 {
		t.Fatalf("partial queries with no dead shards: %d", rep.Queries.Partial)
	}
}

func TestChaosSmallDeterministicAndAccounted(t *testing.T) {
	spec := Builtins()["chaos-small"]
	rep := runTwice(t, spec)
	if err := rep.Check(spec.Guard); err != nil {
		t.Fatal(err)
	}
	if rep.UnaccountedRecords != 0 {
		t.Fatalf("%d unaccounted records under chaos", rep.UnaccountedRecords)
	}
	if rep.Fleet.Crashed != 2 {
		t.Fatalf("want 2 crashed nodes, got %d", rep.Fleet.Crashed)
	}
	if len(rep.Chaos) != len(spec.Chaos) {
		t.Fatalf("want %d chaos events applied, got %d", len(spec.Chaos), len(rep.Chaos))
	}
	if rep.Net.DroppedLoss == 0 {
		t.Fatal("loss injection dropped no packets (the nil-RNG no-op regression)")
	}
	if rep.Net.DroppedDown == 0 && rep.Net.DroppedCut == 0 {
		t.Fatal("partition/crash dropped no packets")
	}
}

// TestDeadShardPartialResults pins the dead-shard degradation counters:
// records offered to a dead shard are attributed to dropped_dead, and
// queries spanning it come back partial at the timeout latency.
func TestDeadShardPartialResults(t *testing.T) {
	spec := Builtins()["chaos-small"]
	rep := runTwice(t, spec)
	if rep.Fanout.DeadShards != 1 {
		t.Fatalf("want 1 dead shard, got %d", rep.Fanout.DeadShards)
	}
	var dead *ShardReport
	for i := range rep.Shards {
		if rep.Shards[i].Dead {
			dead = &rep.Shards[i]
		}
	}
	if dead == nil || dead.Index != 3 {
		t.Fatalf("shard 3 should be dead: %+v", rep.Shards)
	}
	if dead.DroppedDead == 0 {
		t.Fatal("dead shard attributed no dropped records")
	}
	if rep.Queries.Partial == 0 {
		t.Fatal("no partial query results despite a dead shard")
	}
	if got := rep.Queries.Latency.MaxUS; got < int64(spec.Monitor.QueryTimeout/time.Microsecond) {
		t.Fatalf("query max latency %dus below the dead-shard timeout %v", got, spec.Monitor.QueryTimeout)
	}
	// The flapping subscriber's drops are attributed too.
	var flapped bool
	for _, s := range rep.Shards {
		if s.Flaps > 0 && s.DroppedDetached > 0 {
			flapped = true
		}
	}
	if !flapped {
		t.Fatal("flap-subscriber chaos left no detach drops")
	}
}

// TestOverflowSmallSnapshot holds the one builtin that fills a send queue
// to its committed report byte for byte, and checks that the run reaches
// every overflow arm: shed and refused frames, block admits with their
// wait, and a queue discarded at eviction. A block-admitted publisher
// waited less than the deadline, or it would have been refused.
func TestOverflowSmallSnapshot(t *testing.T) {
	spec := Builtins()["overflow-small"]
	rep := runTwice(t, spec)
	if err := rep.Check(spec.Guard); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile("../../BENCH_scenario_overflow-small.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CompareSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	var admits uint64
	var blockedUS int64
	for _, s := range rep.Shards {
		admits += s.BlockAdmits
		blockedUS += s.BlockedUS
	}
	f := rep.Fanout
	if f.DroppedOverflow == 0 || admits == 0 || blockedUS == 0 || f.DroppedEvicted == 0 {
		t.Fatalf("an overflow arm was not reached: dropped_overflow=%d block_admits=%d blocked_us=%d dropped_evicted=%d",
			f.DroppedOverflow, admits, blockedUS, f.DroppedEvicted)
	}
	if limit := int64(admits) * int64(spec.Monitor.BlockTimeout/time.Microsecond); blockedUS > limit {
		t.Fatalf("blocked_us %d > block_admits %d x block_timeout %v", blockedUS, admits, spec.Monitor.BlockTimeout)
	}
}

// TestSlowSubscriberEviction pins the eviction counters on overflow-small's
// stalled shard: a subscriber that persistently overflows is disconnected,
// its queue is charged to dropped_evicted, and every record offered
// afterwards drops there too.
func TestSlowSubscriberEviction(t *testing.T) {
	rep := runTwice(t, Builtins()["overflow-small"])
	s := rep.Shards[1]
	if !s.Evicted || rep.Fanout.EvictedShards != 1 {
		t.Fatalf("subscriber not evicted: %+v", s)
	}
	if s.DroppedOverflow == 0 {
		t.Fatal("no overflow drops before eviction")
	}
	if s.DroppedEvicted == 0 {
		t.Fatal("no records attributed to eviction")
	}
	if s.Offered != s.Delivered+s.DroppedOverflow+s.DroppedEvicted {
		t.Fatalf("evicted shard's records do not add up: %+v", s)
	}
}

// TestAdaptiveOverflowDrops pins the adaptive-policy counters on
// overflow-small's other shard: block admits while the drain beats the
// deadline, overflow drops while slow-subscriber chaos holds it past it,
// and no eviction — it keeps draining between overflows.
func TestAdaptiveOverflowDrops(t *testing.T) {
	rep := runTwice(t, Builtins()["overflow-small"])
	s := rep.Shards[0]
	if s.BlockAdmits == 0 {
		t.Fatal("adaptive policy never block-admitted while drain beat the deadline")
	}
	if s.BlockedUS == 0 {
		t.Fatal("block admits charged no publisher blocked time")
	}
	if s.DroppedOverflow == 0 {
		t.Fatal("adaptive policy never shed frames while slowed past the deadline")
	}
	if s.Evicted || s.Delivered == 0 {
		t.Fatalf("the adaptive shard should survive its slowdown: %+v", s)
	}
}

// TestSeedChangesRun guards against an accidentally unused seed: a
// different seed must produce a different report.
func TestSeedChangesRun(t *testing.T) {
	a := Builtins()["chaos-small"]
	b := Builtins()["chaos-small"]
	b.Seed++
	repA, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	bufA, _ := repA.EncodeJSON()
	bufB, _ := repB.EncodeJSON()
	if bytes.Equal(bufA, bufB) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestSnapshotGuard exercises the byte-level regression guard.
func TestSnapshotGuard(t *testing.T) {
	spec := Builtins()["happy-small"]
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CompareSnapshot(snap); err != nil {
		t.Fatalf("identical snapshot rejected: %v", err)
	}
	mutated := *rep
	mutated.Workload.Completed++
	if err := mutated.CompareSnapshot(snap); err == nil {
		t.Fatal("changed counters passed the snapshot guard")
	}
}

// TestStartupPatterns sanity-checks the four patterns' spread.
func TestStartupPatterns(t *testing.T) {
	for _, pattern := range []string{"instant", "linear", "exponential", "wave"} {
		spec := Builtins()["happy-small"]
		spec.Fleet.Startup = pattern
		spec.Fleet.StartupSpan = time.Second
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if rep.Workload.Completed == 0 {
			t.Fatalf("%s startup: no requests completed", pattern)
		}
		if rep.UnaccountedRecords != 0 {
			t.Fatalf("%s startup: %d unaccounted records", pattern, rep.UnaccountedRecords)
		}
	}
}
