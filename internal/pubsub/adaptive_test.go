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
	if got := d.Resolve(Adaptive, timeout, ""); got != DropOldest {
		t.Fatalf("undelivered connection resolved to %v, want DropOldest", got)
	}
	// Draining faster than the deadline: a slot frees in time, so a
	// short blocking wait loses nothing.
	d.nanos.Store(int64(2 * time.Millisecond))
	if got := d.Resolve(Adaptive, timeout, ""); got != BlockWithDeadline {
		t.Fatalf("fast-draining connection resolved to %v, want BlockWithDeadline", got)
	}
	// Boundary: drain time equal to the deadline still admits in time.
	d.nanos.Store(int64(timeout))
	if got := d.Resolve(Adaptive, timeout, ""); got != BlockWithDeadline {
		t.Fatalf("boundary drain resolved to %v, want BlockWithDeadline", got)
	}
	// Slower than the deadline: shed the oldest instead of stalling the
	// publisher.
	d.nanos.Store(int64(50 * time.Millisecond))
	if got := d.Resolve(Adaptive, timeout, ""); got != DropOldest {
		t.Fatalf("slow-draining connection resolved to %v, want DropOldest", got)
	}
}

// TestAdaptivePerChannelFloor pins the per-channel drain floor: on a
// connection whose EWMA is dominated by a fast channel, frames of a
// channel observed to drain slower than the deadline must still resolve
// to DropOldest — the fast channel cannot mask the slow one.
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
	if got := d.Resolve(Adaptive, timeout, "metrics"); got != BlockWithDeadline {
		t.Fatalf("fast channel resolved to %v, want BlockWithDeadline", got)
	}
	if got := d.Resolve(Adaptive, timeout, "interactions"); got != DropOldest {
		t.Fatalf("slow channel resolved to %v, want DropOldest (masked by the fast channel)", got)
	}
	// A channel with no observations falls back to the connection EWMA.
	if got := d.Resolve(Adaptive, timeout, "unseen"); got != BlockWithDeadline {
		t.Fatalf("unseen channel resolved to %v, want the connection-wide BlockWithDeadline", got)
	}
}

func TestOverflowPolicyParseRoundTrip(t *testing.T) {
	for _, p := range []OverflowPolicy{DropOldest, BlockWithDeadline, Adaptive} {
		got, err := ParseOverflowPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseOverflowPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for in, want := range map[string]OverflowPolicy{
		"drop-oldest":         DropOldest,
		"block-with-deadline": BlockWithDeadline,
		"adaptive":            Adaptive,
	} {
		got, err := ParseOverflowPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseOverflowPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseOverflowPolicy("bogus"); err == nil {
		t.Fatal("ParseOverflowPolicy(bogus) did not error")
	}
}

// TestAdaptiveStalledSubscriberNeverBlocks pins the policy's publisher-
// protection half: a subscriber that has never drained a frame resolves
// to DropOldest, so flooding a full queue must complete without ever
// waiting out a block deadline. The subscriber is wedged, not merely
// stalled: one delivery into a TCP peer's socket buffer would turn the
// policy to blocking.
func TestAdaptiveStalledSubscriberNeverBlocks(t *testing.T) {
	reg := newReg(t)
	const depth = 4
	b := NewBroker(reg,
		WithQueueDepth(depth),
		WithOverflowPolicy(Adaptive),
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
	// One resolved block would already cost a 200ms deadline; dozens of
	// drop-oldest evictions finish in microseconds.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("%d publishes against a stalled adaptive subscriber took %v (policy blocked)", publishes, elapsed)
	}
	// Everything but a full queue and the frame stuck in the writer was shed.
	if got := b.Stats().RemoteDropped; got < publishes-depth-1 {
		t.Fatalf("%d of %d publishes dropped, want at least %d", got, publishes, publishes-depth-1)
	}
}
