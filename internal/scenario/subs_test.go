package scenario

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/gpa"
	"sysprof/internal/sim"
)

// queueTraceHash is the constant internal/pubsub's
// TestSendQueueMatchesMachine pins for the trace its script leaves on the
// bare machine and on the broker's locked sendQueue.
const queueTraceHash = 0xef92416836240006

// TestShardSubMatchesSendQueue plays pubsub's non-waiting driver script
// (runQueueScript there: same seeds, same draws of the block-or-shed
// input, a zero block timeout) through shardSub on a sim engine. Every step must leave the counters and
// queue length the broker's own driver leaves — the harness adds virtual
// time to the shipped queue, never outcomes of its own.
func TestShardSubMatchesSendQueue(t *testing.T) {
	const drain = time.Millisecond
	h := fnv.New64a()
	for _, mode := range []string{"shed", "block", "drawn"} {
		for _, depth := range []int{1, 2, 8} {
			for _, evictAfter := range []int{0, 3} {
				for seed := int64(1); seed <= 5; seed++ {
					eng := sim.NewEngine()
					g := gpa.New(gpa.Config{CorrelationWindow: time.Second, LoadWindow: time.Second, Shards: 1}, eng.Now)
					m := &MonitorSpec{QueueDepth: depth, DrainPerFrame: drain, EvictAfter: evictAfter}
					s := newShardSub(0, eng, g, m)
					rng := rand.New(rand.NewSource(seed))
					for step := 0; step < 200; step++ {
						switch r := rng.Intn(40); {
						case r < 26:
							f := core.NewRecordColumns(4)
							for n := 1 + rng.Intn(4); n > 0; n-- {
								f.Append(&core.Record{})
							}
							block := mode == "block"
							if mode == "drawn" {
								block = rng.Intn(2) == 1
							}
							s.offer(f, block)
						case r < 39 || step < 150:
							// The frame in flight (popped at this instant or
							// one drain ago) completes exactly now.
							if err := eng.RunFor(drain); err != nil {
								t.Fatal(err)
							}
						default:
							s.disconnect(dead)
						}
						// Zero-delay events: the expired block deadlines.
						if err := eng.RunUntil(eng.Now()); err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(h, "%+v len=%d\n", s.q.Counts, s.q.Len())
					}
					if s.offered != s.q.Counts.Popped-s.inflight+s.q.Counts.Refused+s.q.Counts.EvictedOldest+
						s.lost[evicted]+s.lost[dead]+s.queuedRecords() {
						t.Fatalf("%s/depth=%d/evict=%d/seed=%d: the shard's accounting does not close: %+v", mode, depth, evictAfter, seed, s)
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != queueTraceHash {
		t.Fatalf("trace hash %#x, want %#x: shardSub no longer leaves the trace pubsub's sendQueue leaves (TestSendQueueMatchesMachine pins the same constant)", got, uint64(queueTraceHash))
	}
}
