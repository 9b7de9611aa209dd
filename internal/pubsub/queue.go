package pubsub

import (
	"sync"
	"sync/atomic"
	"time"

	"sysprof/internal/pbio"
)

// Config holds the remote fan-out knobs. Zero values take the defaults.
type Config struct {
	// QueueDepth is the per-subscriber outgoing queue capacity, in
	// frames (one published batch = at most one frame). Default 256.
	QueueDepth int
	// BlockTimeout bounds how long a publisher waits for space in a full
	// queue (DrainEstimate.ShouldBlock decides whether it waits at all).
	// Default 10ms.
	BlockTimeout time.Duration
	// EvictAfterOverflows disconnects a subscriber after this many
	// consecutive publishes that overflowed its queue — a subscriber
	// that persistently cannot keep up is cheaper gone than throttling
	// the node. 0 disables eviction. Default 64.
	EvictAfterOverflows int
}

// DefaultConfig returns the default fan-out knobs.
func DefaultConfig() Config {
	return Config{
		QueueDepth:          256,
		BlockTimeout:        10 * time.Millisecond,
		EvictAfterOverflows: 64,
	}
}

// Option customizes a broker at construction.
type Option func(*Config)

// WithQueueDepth sets the per-subscriber send queue capacity in frames.
func WithQueueDepth(n int) Option { return func(c *Config) { c.QueueDepth = n } }

// WithBlockTimeout sets the full-queue wait bound.
func WithBlockTimeout(d time.Duration) Option { return func(c *Config) { c.BlockTimeout = d } }

// WithEvictAfterOverflows sets the sustained-overflow eviction threshold
// (0 disables).
func WithEvictAfterOverflows(n int) Option { return func(c *Config) { c.EvictAfterOverflows = n } }

// frame is one encoded publish, shared by reference across every
// subscriber queue it was fanned out to: the broker encodes once, each
// connection's writer goroutine writes the same bytes. buf holds the
// channel header (buf[:hdrLen]) followed by the PBIO record or batch
// frame; the writer splices the stream's format-definition frame between
// the two on first use of format, because the subscriber reads the
// channel header before handing the rest to its PBIO decoder.
type frame struct {
	// refs is the fan-out reference count. The publisher presets it with
	// a plain store before the first enqueue — the send queue's mutex
	// publishes it to the writer goroutines — so pooled frames carry a
	// stale count until their next use.
	refs   int64
	buf    []byte
	hdrLen int
	format *pbio.Format
	recs   int
	// channel attributes the frame to its publish channel for the
	// per-channel drain EWMAs (empty on frames predating attribution).
	channel string
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// release drops one reference; the last one returns the frame to the
// pool. Reading 1 means the caller holds the only reference (nobody else
// can concurrently release), so the common single-subscriber case skips
// the locked decrement entirely.
//
//sysprof:nonblocking
func (f *frame) release() {
	if atomic.LoadInt64(&f.refs) == 1 || atomic.AddInt64(&f.refs, -1) == 0 {
		f.buf = f.buf[:0]
		f.hdrLen = 0
		f.format = nil
		f.recs = 0
		f.channel = ""
		framePool.Put(f)
	}
}

// Queue is one subscriber's send queue as a pure state machine: a bounded
// FIFO ring of frames, admission under an already-made block-or-shed
// decision, the consecutive-overflow streak with its eviction verdict, and
// every traffic counter. It takes no lock and reads no clock; whoever
// drives it supplies both, and all the waiting — sendQueue for the
// broker's writer goroutines, sim-engine events in the scenario harness,
// so chaos runs exercise this code and not a copy of it.
type Queue[F any] struct {
	// Counts is exported so that a driver modelling a reconnect can carry
	// the counters over into the next connection's Queue.
	Counts QueueCounts

	ring       []queued[F]
	head, n    int
	closed     bool
	evictAfter int64
	streak     int64 // consecutive overflowing offers (0 = keeping up)
}

type queued[F any] struct {
	f    F
	recs uint64
}

// QueueCounts counts a Queue's traffic, in records except AdmittedFrames.
// After every operation Offered == Admitted + Refused and Admitted ==
// Popped + EvictedOldest + Discarded + QueuedRecords(): nothing leaves the
// queue without a number.
type QueueCounts struct {
	Offered        uint64 // a WouldBlock or QueueClosed offer is not one
	Admitted       uint64
	AdmittedFrames uint64
	Refused        uint64 // the block deadline passed; the new frame was dropped
	EvictedOldest  uint64 // shed from the head to admit a newer frame
	Discarded      uint64 // still queued at Close, or popped and never delivered (Lose)
	Popped         uint64 // handed to the consumer and not reported lost
}

// Outcome is what became of an offered frame.
type Outcome uint8

const (
	Admitted  Outcome = iota // queued in a free slot; the overflow streak is zeroed
	Displaced                // queued in place of the oldest frame, which Admission.Evicted hands to the caller
	Refused                  // dropped for this subscriber (what Refuse returns)
	// WouldBlock: a blocking offer met a full ring and nothing changed. The
	// driver waits for a Pop and offers again, or gives up with Refuse.
	WouldBlock
	QueueClosed // the subscriber is gone; nothing is queued or counted
)

// Admission reports one Offer or Refuse. Evict is the sustained-overflow
// verdict, given once, on the offer that takes the streak to
// EvictAfterOverflows: the driver should disconnect the subscriber.
type Admission[F any] struct {
	Outcome Outcome
	Evicted F
	Evict   bool
}

// NewQueue returns an empty queue of depth frames (at least one) whose
// eviction verdict fires after evictAfter consecutive overflows (0 = never).
func NewQueue[F any](depth, evictAfter int) Queue[F] {
	return Queue[F]{ring: make([]queued[F], max(depth, 1)), evictAfter: int64(evictAfter)}
}

// Offer admits f, carrying recs records: into a free slot if there is one,
// else WouldBlock when block is set and Displaced when it is not.
func (q *Queue[F]) Offer(f F, recs uint64, block bool) (a Admission[F]) {
	switch {
	case q.closed:
		return Admission[F]{Outcome: QueueClosed}
	case q.n < len(q.ring):
		q.ring[(q.head+q.n)%len(q.ring)] = queued[F]{f, recs}
		q.n++
		q.streak = 0
	case block:
		return Admission[F]{Outcome: WouldBlock}
	default:
		// The new frame lands exactly where the evicted one sat ((head+1 +
		// n-1) mod cap == head), so replace in place: n is unchanged and the
		// queue stays non-empty, so no consumer needs waking.
		old := &q.ring[q.head]
		a.Outcome, a.Evicted = Displaced, old.f
		q.Counts.EvictedOldest += old.recs
		*old = queued[F]{f, recs}
		q.head = (q.head + 1) % len(q.ring)
		a.Evict = q.overflowed()
	}
	q.Counts.Offered += recs
	q.Counts.Admitted += recs
	q.Counts.AdmittedFrames++
	return a
}

// Refuse drops a frame of recs records that WouldBlock and whose deadline
// has passed.
func (q *Queue[F]) Refuse(recs uint64) Admission[F] {
	q.Counts.Offered += recs
	q.Counts.Refused += recs
	return Admission[F]{Outcome: Refused, Evict: q.overflowed()}
}

func (q *Queue[F]) overflowed() bool {
	q.streak++
	return q.streak == q.evictAfter // 0 never matches: the streak is at least 1 here
}

// Pop removes the oldest frame; ok is false on an empty queue.
func (q *Queue[F]) Pop() (f F, ok bool) {
	if q.n == 0 {
		return f, false
	}
	head := q.ring[q.head]
	q.ring[q.head] = queued[F]{}
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	q.Counts.Popped += head.recs
	return head.f, true
}

// Lose moves a popped frame's recs records from Popped to Discarded: its
// write failed, or its subscriber went away while it was in flight.
func (q *Queue[F]) Lose(recs uint64) {
	q.Counts.Popped -= recs
	q.Counts.Discarded += recs
}

// Close marks the queue closed and returns the frames still queued, counted
// as Discarded, so the caller can release their references.
func (q *Queue[F]) Close() (rem []F) {
	q.closed = true
	before := q.Counts.Popped
	for f, ok := q.Pop(); ok; f, ok = q.Pop() {
		rem = append(rem, f)
	}
	q.Lose(q.Counts.Popped - before)
	return rem
}

// Len is the number of frames queued.
func (q *Queue[F]) Len() int { return q.n }

// QueuedRecords sums the records of the frames still queued.
func (q *Queue[F]) QueuedRecords() (recs uint64) {
	for i := 0; i < q.n; i++ {
		recs += q.ring[(q.head+i)%len(q.ring)].recs
	}
	return recs
}

// DrainEstimate is one connection's observed per-frame drain time, the
// input of the full-queue decision: an EWMA over every frame and one per
// channel. Only the connection's writer calls Note; ShouldBlock only loads.
type DrainEstimate struct {
	nanos atomic.Int64
	// byChannel is a copy-on-write map (a channel shows up once, on its
	// first delivered frame). It floors the decision per channel, so one
	// fast channel on a shared connection cannot mask a slow one.
	byChannel atomic.Pointer[map[string]*atomic.Int64]
}

// ShouldBlock decides what a full queue does with a frame of channel. When
// the writer has been draining a frame within the timeout, a slot will free
// up before the deadline, so a short blocking wait loses nothing: true, and
// the publisher waits. When it drains slower than the timeout, or has never
// delivered, blocking would burn publisher time for a frame that gets
// refused anyway: false, and the queue sheds its oldest frame, so a slow
// subscriber sees the freshest data with gaps.
//
//sysprof:nonblocking
func (d *DrainEstimate) ShouldBlock(timeout time.Duration, channel string) bool {
	est := d.nanos.Load()
	if m := d.byChannel.Load(); m != nil && channel != "" {
		if e := (*m)[channel]; e != nil {
			est = max(est, e.Load())
		}
	}
	return est > 0 && time.Duration(est) <= timeout
}

// Note folds one frame's drain time into the connection and per-channel
// EWMAs (α = 1/8). Plain load-modify-store sequences are race-free under
// the single-caller rule; the atomic stores publish to ShouldBlock.
func (d *DrainEstimate) Note(channel string, dur int64) {
	prev := d.nanos.Load()
	d.nanos.Store(prev - prev/8 + dur/8)
	if channel == "" {
		return
	}
	m := d.byChannel.Load()
	e := (*atomic.Int64)(nil)
	if m != nil {
		e = (*m)[channel]
	}
	if e == nil {
		// First frame on this channel: publish a grown snapshot.
		next := make(map[string]*atomic.Int64, 4)
		if m != nil {
			for k, v := range *m {
				next[k] = v
			}
		}
		e = new(atomic.Int64)
		next[channel] = e
		d.byChannel.Store(&next)
	}
	prev = e.Load()
	e.Store(prev - prev/8 + dur/8)
}

// sendQueue drives a Queue between the publish path and one connection's
// writer goroutine, adding only what the machine leaves out: the lock and
// the waiting — the writer's for a frame, a blocked publisher's for a slot.
type sendQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	// Guarded by mu, which enqueue holds anyway: the machine's counters
	// cost plain adds, not one locked RMW each on the publish hot path.
	m            Queue[*frame]
	blockedNanos uint64
}

func newSendQueue(depth, evictAfter int) *sendQueue {
	q := &sendQueue{m: NewQueue[*frame](depth, evictAfter)}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// enqueue offers f to the machine. The caller owns the reference of a
// frame that was not admitted, and of a displaced one. A shedding offer
// never waits; a blocking one waits at most the timeout, so the publish
// path cannot stall indefinitely.
//
//sysprof:nonblocking
func (q *sendQueue) enqueue(f *frame, block bool, timeout time.Duration) Admission[*frame] {
	recs := uint64(f.recs)
	q.mu.Lock()
	defer q.mu.Unlock()
	a := q.m.Offer(f, recs, block)
	if a.Outcome == WouldBlock {
		start := time.Now()
		timer := time.AfterFunc(timeout, func() {
			q.mu.Lock()
			q.notFull.Broadcast()
			q.mu.Unlock()
		})
		for a.Outcome == WouldBlock && time.Since(start) < timeout {
			//lint:ignore nonblock a blocking offer is an explicitly bounded wait: the AfterFunc broadcast wakes this within the timeout
			q.notFull.Wait()
			a = q.m.Offer(f, recs, block)
		}
		timer.Stop()
		q.blockedNanos += uint64(time.Since(start))
		if a.Outcome == WouldBlock {
			a = q.m.Refuse(recs)
		}
	}
	if a.Outcome == Admitted && q.m.Len() == 1 {
		// The writer only ever waits on an empty queue, so a signal is
		// needed solely on the empty→non-empty transition; skipping it
		// otherwise keeps the publish path off the cond's notify list.
		q.notEmpty.Signal()
	}
	return a
}

// dequeue blocks for the next frame; ok is false once the queue is
// closed.
func (q *sendQueue) dequeue() (*frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.m.Len() == 0 && !q.m.closed {
		q.notEmpty.Wait()
	}
	q.notFull.Signal()
	return q.m.Pop()
}

// lose reports that a dequeued frame of recs records was never delivered.
func (q *sendQueue) lose(recs uint64) {
	q.mu.Lock()
	q.m.Lose(recs)
	q.mu.Unlock()
}

// close closes the machine, wakes all waiters, and returns the frames
// still queued so the caller can release their references.
func (q *sendQueue) close() []*frame {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	return q.m.Close()
}

// snapshot returns a mutex-consistent copy of the machine, for its counters
// and lengths (the ring is shared), and the time publishers spent blocked.
func (q *sendQueue) snapshot() (Queue[*frame], uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.m, q.blockedNanos
}
