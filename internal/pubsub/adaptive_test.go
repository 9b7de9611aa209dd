package pubsub

import (
	"testing"
	"time"
)

func TestAdaptivePolicyResolution(t *testing.T) {
	var d DrainEstimate
	const timeout = 10 * time.Millisecond

	// No delivery observed yet: blocking would burn the full deadline
	// for a frame that gets dropped anyway.
	if d.ShouldBlock(timeout, "") {
		t.Fatal("undelivered connection blocks, want shed")
	}
	// Draining faster than the deadline: a slot frees in time, so a
	// short blocking wait loses nothing.
	d.nanos.Store(int64(2 * time.Millisecond))
	if !d.ShouldBlock(timeout, "") {
		t.Fatal("fast-draining connection sheds, want block")
	}
	// Boundary: drain time equal to the deadline still admits in time.
	d.nanos.Store(int64(timeout))
	if !d.ShouldBlock(timeout, "") {
		t.Fatal("boundary drain sheds, want block")
	}
	// Slower than the deadline: shed the oldest instead of stalling the
	// publisher.
	d.nanos.Store(int64(50 * time.Millisecond))
	if d.ShouldBlock(timeout, "") {
		t.Fatal("slow-draining connection blocks, want shed")
	}
}

// TestAdaptivePerChannelFloor pins the per-channel drain floor: on a
// connection whose EWMA is dominated by a fast channel, frames of a
// channel observed to drain slower than the deadline must still be shed —
// the fast channel cannot mask the slow one.
func TestAdaptivePerChannelFloor(t *testing.T) {
	var d DrainEstimate
	const timeout = 10 * time.Millisecond

	// Skewed drain rates: many fast "metrics" frames and a few slow
	// "interactions" frames. The connection-wide EWMA lands well under
	// the deadline.
	for i := 0; i < 32; i++ {
		d.Note("metrics", int64(time.Millisecond))
	}
	for i := 0; i < 32; i++ {
		d.Note("interactions", int64(80*time.Millisecond))
	}
	for i := 0; i < 32; i++ {
		d.Note("metrics", int64(time.Millisecond))
	}
	if d := time.Duration(d.nanos.Load()); d > timeout {
		t.Fatalf("connection EWMA %v above the deadline; the masking scenario never materialized", d)
	}
	if !d.ShouldBlock(timeout, "metrics") {
		t.Fatal("fast channel sheds, want block")
	}
	if d.ShouldBlock(timeout, "interactions") {
		t.Fatal("slow channel blocks, want shed (masked by the fast channel)")
	}
	// A channel with no observations falls back to the connection EWMA.
	if !d.ShouldBlock(timeout, "unseen") {
		t.Fatal("unseen channel sheds, want the connection-wide block")
	}
}

// TestAdaptiveStalledSubscriberNeverBlocks pins the publisher-protection
// half of the full-queue decision: a subscriber that has never drained a
// frame is shed, so flooding a full queue must complete without ever
// waiting out a block deadline. The subscriber is wedged, not merely
// stalled: one delivery into a TCP peer's socket buffer would turn the
// decision to blocking.
func TestAdaptiveStalledSubscriberNeverBlocks(t *testing.T) {
	reg := newReg(t)
	const depth = 4
	b := NewBroker(reg,
		WithQueueDepth(depth),
		WithBlockTimeout(200*time.Millisecond),
		WithEvictAfterOverflows(0))
	defer b.Close()

	defer wedgedSub(t, b, "m").Close() // never reads: the queue stays full

	const publishes = 64
	start := time.Now()
	for i := 0; i < publishes; i++ {
		if err := publishOne(b, "m", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// One blocking offer would already cost a 200ms deadline; dozens of
	// drop-oldest evictions finish in microseconds.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("%d publishes against a stalled subscriber took %v (the publisher blocked)", publishes, elapsed)
	}
	// Everything but a full queue and the frame stuck in the writer was shed.
	if got := b.Stats().RemoteDropped; got < publishes-depth-1 {
		t.Fatalf("%d of %d publishes dropped, want at least %d", got, publishes, publishes-depth-1)
	}
}

// TestDefaultBrokerAdapts drives a broker built with no options, the one
// sysprofd ships, through both arms of the full-queue decision: a wedged
// subscriber that has never delivered is shed without the publisher
// waiting, and a subscriber whose writer has drained within the deadline
// makes the publisher wait and then admits the frame when a slot frees.
func TestDefaultBrokerAdapts(t *testing.T) {
	depth := DefaultConfig().QueueDepth

	t.Run("never-delivered-sheds", func(t *testing.T) {
		b := NewBroker(newReg(t))
		defer b.Close()
		defer wedgedSub(t, b, "m").Close()

		// A full queue, the frame stuck in the writer, and 32 overflows:
		// fewer than the eviction threshold, so the subscriber stays.
		publishes := depth + 1 + 32
		for i := 0; i < publishes; i++ {
			if err := publishOne(b, "m", uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		subs := b.Subscribers()
		if len(subs) != 1 {
			t.Fatalf("%d subscribers, want the wedged one", len(subs))
		}
		s := subs[0]
		if s.BlockedNanos != 0 || s.Refused != 0 {
			t.Fatalf("the publisher waited %v on a subscriber that never delivered (refused %d)", time.Duration(s.BlockedNanos), s.Refused)
		}
		if s.EvictedOldest < 31 || b.Stats().RemoteDropped != s.EvictedOldest {
			t.Fatalf("shed %d records (broker counts %d dropped), want at least 31", s.EvictedOldest, b.Stats().RemoteDropped)
		}
	})

	t.Run("draining-block-admits", func(t *testing.T) {
		b := NewBroker(newReg(t))
		defer b.Close()
		g, client := gatedSub(t, b, "m")
		defer client.Close()

		// Open gate: four frames drain at once, so the estimate sits far
		// under the deadline.
		for i := 0; i < 4; i++ {
			if err := publishOne(b, "m", uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "four deliveries", func() bool { return b.Stats().RemoteDeliver == 4 })

		// Stall the writer on one frame in flight, then fill the queue.
		g.hold(true)
		if err := publishOne(b, "m", 4); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the writer to take the frame", func() bool { return b.Subscribers()[0].QueueLen == 0 })
		for i := 0; i < depth; i++ {
			if err := publishOne(b, "m", uint64(5+i)); err != nil {
				t.Fatal(err)
			}
		}
		if s := b.Subscribers()[0]; s.QueueLen != s.QueueCap || s.BlockedNanos != 0 {
			t.Fatalf("queue holds %d of %d frames after filling it (blocked %v)", s.QueueLen, s.QueueCap, time.Duration(s.BlockedNanos))
		}

		// The writer resumes well inside the 10ms deadline, after the next
		// publish has started waiting for its slot.
		go func() {
			time.Sleep(time.Millisecond)
			g.hold(false)
		}()
		if err := publishOne(b, "m", uint64(5+depth)); err != nil {
			t.Fatal(err)
		}
		s := b.Subscribers()[0]
		if s.BlockedNanos == 0 {
			t.Fatal("the publish into a full queue did not wait")
		}
		if s.Refused != 0 || s.EvictedOldest != 0 || b.Stats().RemoteDropped != 0 {
			t.Fatalf("the waiting publish lost records: refused %d, shed %d", s.Refused, s.EvictedOldest)
		}
		if want := uint64(6 + depth); s.Admitted != want {
			t.Fatalf("admitted %d records, want all %d published", s.Admitted, want)
		}
	})
}
