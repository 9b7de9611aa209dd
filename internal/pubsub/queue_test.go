package pubsub

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// queueConfigs is the grid both queue tests sweep. The mode is how each
// offer's block-or-shed input is drawn: "shed" and "block" hold it fixed,
// and "drawn" flips it from one offer to the next, as
// DrainEstimate.ShouldBlock may.
func queueConfigs(fn func(mode string, depth, evictAfter int)) {
	for _, mode := range []string{"shed", "block", "drawn"} {
		for _, depth := range []int{1, 2, 8} {
			for _, evictAfter := range []int{0, 3} {
				fn(mode, depth, evictAfter)
			}
		}
	}
}

// blocks draws one offer's block-or-shed input under mode.
func blocks(mode string, rng *rand.Rand) bool {
	switch mode {
	case "shed":
		return false
	case "block":
		return true
	}
	return rng.Intn(2) == 1
}

// TestQueueMachineProperties drives the bare state machine with seeded
// random offer / refuse / pop / lose / close scripts against an independent
// model (a slice of frame ids and sizes) and checks, after every step, the
// conservation identities, FIFO order, what blocking and shedding offers
// each guarantee, and the overflow streak with its eviction verdict.
func TestQueueMachineProperties(t *testing.T) {
	type modelFrame struct {
		id   int
		recs uint64
	}
	queueConfigs(func(mode string, depth, evictAfter int) {
		for seed := int64(1); seed <= 20; seed++ {
			name := fmt.Sprintf("%s/depth=%d/evict=%d/seed=%d", mode, depth, evictAfter, seed)
			rng := rand.New(rand.NewSource(seed))
			q := NewQueue[int](depth, evictAfter)
			var model, popped []modelFrame
			var closed bool
			nextID := 0
			for step := 0; step < 400; step++ {
				streak := q.streak
				switch r := rng.Intn(20); {
				case r < 11: // offer
					f := modelFrame{nextID, uint64(1 + rng.Intn(4))}
					nextID++
					block := blocks(mode, rng)
					a := q.Offer(f.id, f.recs, block)
					if a.Outcome == WouldBlock {
						if !block || len(model) != depth {
							t.Fatalf("%s step %d: WouldBlock with block=%v and %d/%d queued", name, step, block, len(model), depth)
						}
						if q.streak != streak {
							t.Fatalf("%s step %d: a WouldBlock offer moved the streak", name, step)
						}
						if rng.Intn(2) == 0 {
							continue // the publisher is still waiting; it offers again as a new step
						}
						a = q.Refuse(f.recs)
					}
					switch a.Outcome {
					case QueueClosed:
						if !closed {
							t.Fatalf("%s step %d: QueueClosed from an open queue", name, step)
						}
					case Admitted:
						if closed || len(model) == depth {
							t.Fatalf("%s step %d: clean admit into a closed or full queue", name, step)
						}
						model = append(model, f)
						if q.streak != 0 {
							t.Fatalf("%s step %d: a clean admit left the streak at %d", name, step, q.streak)
						}
					case Displaced:
						if block {
							t.Fatalf("%s step %d: a blocking offer evicted the oldest frame", name, step)
						}
						if len(model) != depth || a.Evicted != model[0].id {
							t.Fatalf("%s step %d: displaced %d, model head %v of %d/%d", name, step, a.Evicted, model[0], len(model), depth)
						}
						model = append(model[1:], f)
					case Refused:
						if !block {
							t.Fatalf("%s step %d: a shedding offer was refused", name, step)
						}
					}
					if a.Outcome == Displaced || a.Outcome == Refused {
						if q.streak != streak+1 {
							t.Fatalf("%s step %d: overflow took the streak from %d to %d", name, step, streak, q.streak)
						}
						if want := evictAfter > 0 && q.streak == int64(evictAfter); a.Evict != want {
							t.Fatalf("%s step %d: Evict = %v at streak %d, threshold %d", name, step, a.Evict, q.streak, evictAfter)
						}
					} else if a.Evict {
						t.Fatalf("%s step %d: eviction verdict on a %v outcome", name, step, a.Outcome)
					}
				case r < 17: // pop
					f, ok := q.Pop()
					if ok != (len(model) > 0) {
						t.Fatalf("%s step %d: Pop ok = %v with %d modelled frames", name, step, ok, len(model))
					}
					if ok {
						if f != model[0].id {
							t.Fatalf("%s step %d: popped frame %d, FIFO head is %d", name, step, f, model[0].id)
						}
						popped = append(popped, model[0])
						model = model[1:]
					}
				case r < 19: // a popped frame turns out undeliverable
					if len(popped) > 0 {
						q.Lose(popped[len(popped)-1].recs)
						popped = popped[:len(popped)-1]
					}
				default:
					if step < 300 {
						continue // close late, so most of the script runs on an open queue
					}
					rem := q.Close()
					if len(rem) != len(model) {
						t.Fatalf("%s step %d: Close returned %d frames, %d were queued", name, step, len(rem), len(model))
					}
					for i, f := range rem {
						if f != model[i].id {
							t.Fatalf("%s step %d: Close returned frame %d at %d, want %d", name, step, f, i, model[i].id)
						}
					}
					model, closed = nil, true
				}

				var queued uint64
				for _, f := range model {
					queued += f.recs
				}
				c := q.Counts
				if q.Len() != len(model) || q.QueuedRecords() != queued {
					t.Fatalf("%s step %d: queue holds %d frames / %d records, model %d / %d", name, step, q.Len(), q.QueuedRecords(), len(model), queued)
				}
				if c.Offered != c.Admitted+c.Refused {
					t.Fatalf("%s step %d: offered %d != admitted %d + refused %d", name, step, c.Offered, c.Admitted, c.Refused)
				}
				if c.Admitted != c.Popped+c.EvictedOldest+c.Discarded+queued {
					t.Fatalf("%s step %d: admitted %d != popped %d + evicted-oldest %d + discarded %d + queued %d",
						name, step, c.Admitted, c.Popped, c.EvictedOldest, c.Discarded, queued)
				}
				if mode == "shed" && c.Refused != 0 {
					t.Fatalf("%s step %d: shedding offers refused %d records", name, step, c.Refused)
				}
				if mode == "block" && c.EvictedOldest != 0 {
					t.Fatalf("%s step %d: blocking offers evicted %d records", name, step, c.EvictedOldest)
				}
			}
		}
	})
}

// queueTraceHash is the FNV-1a hash of the counter trace the driver script
// below leaves, over every configuration and seed. The scenario package's
// TestShardSubMatchesSendQueue runs the same script through its sim-engine
// driver and pins the same constant, so the two drivers are held to one
// outcome sequence without either test importing the other's internals.
const queueTraceHash = 0xef92416836240006

// queueDriver is what the script needs of a driver: a non-waiting offer
// (a frame that would block is refused at once, a zero block timeout), a
// non-blocking pop, and the rest of the machine's surface.
type queueDriver interface {
	offer(f *frame, block bool) Admission[*frame]
	pop() (*frame, bool)
	lose(recs uint64)
	close()
	counts() (QueueCounts, int)
}

type bareQueue struct{ q Queue[*frame] }

func (d *bareQueue) offer(f *frame, block bool) Admission[*frame] {
	a := d.q.Offer(f, uint64(f.recs), block)
	if a.Outcome == WouldBlock {
		a = d.q.Refuse(uint64(f.recs))
	}
	return a
}
func (d *bareQueue) pop() (*frame, bool)        { return d.q.Pop() }
func (d *bareQueue) lose(recs uint64)           { d.q.Lose(recs) }
func (d *bareQueue) close()                     { d.q.Close() }
func (d *bareQueue) counts() (QueueCounts, int) { return d.q.Counts, d.q.Len() }

type lockedQueue struct{ q *sendQueue }

func (d *lockedQueue) offer(f *frame, block bool) Admission[*frame] {
	return d.q.enqueue(f, block, 0)
}
func (d *lockedQueue) pop() (*frame, bool) {
	if m, _ := d.q.snapshot(); m.Len() == 0 {
		return nil, false // dequeue would wait
	}
	return d.q.dequeue()
}
func (d *lockedQueue) lose(recs uint64) { d.q.lose(recs) }
func (d *lockedQueue) close()           { d.q.close() }
func (d *lockedQueue) counts() (QueueCounts, int) {
	m, _ := d.q.snapshot()
	return m.Counts, m.Len()
}

// runQueueScript plays a seeded script of offers, drain completions and a
// late disconnect through a driver the way a connection's writer would:
// an idle writer pops the head at once and holds it in flight until the
// next drain step delivers it; an eviction verdict or the disconnect step
// loses the frame in flight and closes the queue. It returns the counters
// and queue length after every step.
func runQueueScript(d queueDriver, mode string, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var inflight *frame
	disconnect := func() {
		if inflight != nil {
			d.lose(uint64(inflight.recs))
			inflight = nil
		}
		d.close()
	}
	var trace []string
	for step := 0; step < 200; step++ {
		switch r := rng.Intn(40); {
		case r < 26:
			f := &frame{recs: 1 + rng.Intn(4)}
			if a := d.offer(f, blocks(mode, rng)); a.Evict {
				disconnect()
			}
		case r < 39 || step < 150:
			inflight = nil // delivered
		default:
			disconnect()
		}
		if inflight == nil {
			inflight, _ = d.pop()
		}
		c, n := d.counts()
		trace = append(trace, fmt.Sprintf("%+v len=%d", c, n))
	}
	return trace
}

// TestSendQueueMatchesMachine plays the same non-waiting scripts through
// the bare machine and through the broker's locked sendQueue driver: the
// driver may add waiting, never outcomes. The trace hash ties both to the
// scenario harness's driver (see queueTraceHash).
func TestSendQueueMatchesMachine(t *testing.T) {
	h := fnv.New64a()
	queueConfigs(func(mode string, depth, evictAfter int) {
		for seed := int64(1); seed <= 5; seed++ {
			want := runQueueScript(&bareQueue{NewQueue[*frame](depth, evictAfter)}, mode, seed)
			got := runQueueScript(&lockedQueue{newSendQueue(depth, evictAfter)}, mode, seed)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/depth=%d/evict=%d/seed=%d step %d:\n sendQueue %s\n machine   %s",
						mode, depth, evictAfter, seed, i, got[i], want[i])
				}
				fmt.Fprintln(h, want[i])
			}
		}
	})
	if got := h.Sum64(); got != queueTraceHash {
		t.Fatalf("trace hash %#x, want %#x: the machine's outcomes changed — if intended, update queueTraceHash here and in internal/scenario/subs_test.go", got, uint64(queueTraceHash))
	}
}
