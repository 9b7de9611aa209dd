package pubsub

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sysprof/internal/pbio"
)

// OverflowPolicy decides what happens when a remote subscriber's send
// queue is full at enqueue time.
type OverflowPolicy int32

const (
	// DropOldest evicts the oldest queued frame to admit the new one.
	// Publishing never blocks; a slow subscriber sees the freshest data
	// with gaps. This is the default: SysProf monitoring data ages fast,
	// so stale frames are the right thing to shed.
	DropOldest OverflowPolicy = iota
	// BlockWithDeadline makes the publisher wait up to the configured
	// block timeout for queue space; if the deadline passes the NEW frame
	// is dropped for that subscriber. Use when losing the most recent
	// records matters more than bounding publish latency.
	BlockWithDeadline
	// Adaptive picks between the two per subscriber from the observed
	// drain rate: when the connection's writer has been draining a frame
	// faster than the block timeout, a full queue will free a slot within
	// the deadline, so a short blocking wait loses nothing; when the
	// subscriber drains slower than the timeout (or has never delivered),
	// blocking would burn publisher time for a frame that gets dropped
	// anyway, so the policy falls back to shedding the oldest frame.
	Adaptive
)

func (p OverflowPolicy) String() string {
	switch p {
	case DropOldest:
		return "drop"
	case BlockWithDeadline:
		return "block"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("overflow(%d)", int32(p))
	}
}

// ParseOverflowPolicy maps a knob string ("drop"/"drop-oldest",
// "block"/"block-with-deadline", "adaptive") to a policy.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "drop", "drop-oldest":
		return DropOldest, nil
	case "block", "block-with-deadline":
		return BlockWithDeadline, nil
	case "adaptive":
		return Adaptive, nil
	default:
		return DropOldest, fmt.Errorf("pubsub: unknown overflow policy %q (want drop, block, or adaptive)", s)
	}
}

// Config holds the remote fan-out knobs. Zero values take the defaults.
type Config struct {
	// QueueDepth is the per-subscriber outgoing queue capacity, in
	// frames (one Publish or PublishBatch = one frame). Default 256.
	QueueDepth int
	// Overflow picks the full-queue policy. Default DropOldest.
	Overflow OverflowPolicy
	// BlockTimeout bounds how long BlockWithDeadline waits for queue
	// space. Default 10ms.
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
		Overflow:            DropOldest,
		BlockTimeout:        10 * time.Millisecond,
		EvictAfterOverflows: 64,
	}
}

// Option customizes a broker at construction.
type Option func(*Config)

// WithQueueDepth sets the per-subscriber send queue capacity in frames.
func WithQueueDepth(n int) Option { return func(c *Config) { c.QueueDepth = n } }

// WithOverflowPolicy sets the full-queue policy.
func WithOverflowPolicy(p OverflowPolicy) Option { return func(c *Config) { c.Overflow = p } }

// WithBlockTimeout sets the BlockWithDeadline wait bound.
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
//sysprof:noalloc
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

// sendQueue is a bounded FIFO ring of frames between the publish path
// and one connection's writer goroutine.
type sendQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	ring     []*frame
	head     int
	n        int
	closed   bool

	// Traffic counters, guarded by mu. enqueue already holds the lock,
	// so bumping them here costs plain adds; as per-connection atomics
	// they were one locked RMW each on the publish hot path.
	enqFrames      uint64
	enqRecords     uint64
	dropped        uint64
	blockedNanos   uint64
	overflowStreak int64
}

func newSendQueue(depth int) *sendQueue {
	if depth < 1 {
		depth = 1
	}
	q := &sendQueue{ring: make([]*frame, depth)}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// enqResult reports an enqueue attempt's outcome. The caller owns the
// reference of a frame that was not admitted, and the reference of any
// evicted frame. streak is the consecutive-overflow count after this
// attempt (zero on a clean admit), so the caller can apply the
// sustained-overflow eviction policy without touching the counters.
type enqResult struct {
	admitted bool
	closed   bool
	evicted  *frame
	streak   int64
}

// enqueue admits f (carrying recs records) to the ring, applying the
// overflow policy when full, and maintains the queue's traffic counters
// under the lock it already holds. Under DropOldest it never waits;
// BlockWithDeadline bounds the wait by the timeout, so the publish path
// cannot stall indefinitely.
//
//sysprof:nonblocking
func (q *sendQueue) enqueue(f *frame, recs uint64, policy OverflowPolicy, timeout time.Duration) enqResult {
	var res enqResult
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		res.closed = true
		return res
	}
	if q.n == len(q.ring) {
		if policy == BlockWithDeadline {
			start := time.Now()
			timer := time.AfterFunc(timeout, func() {
				q.mu.Lock()
				q.notFull.Broadcast()
				q.mu.Unlock()
			})
			for q.n == len(q.ring) && !q.closed && time.Since(start) < timeout {
				//lint:ignore nonblock BlockWithDeadline is an explicitly bounded wait: the AfterFunc broadcast wakes this within the timeout
				q.notFull.Wait()
			}
			timer.Stop()
			q.blockedNanos += uint64(time.Since(start))
			if q.closed {
				res.closed = true
				return res
			}
			if q.n == len(q.ring) {
				// Deadline expired; the new frame is dropped.
				q.dropped += recs
				q.overflowStreak++
				res.streak = q.overflowStreak
				return res
			}
		} else {
			// Full ring, drop-oldest: the new frame lands exactly where the
			// evicted one sat ((head+1 + n-1) mod cap == head), so replace
			// in place — one pointer write, n unchanged, and no writer
			// wake-up needed since the queue stays non-empty.
			res.evicted = q.ring[q.head]
			q.ring[q.head] = f
			q.head = (q.head + 1) % len(q.ring)
			res.admitted = true
			q.enqFrames++
			q.enqRecords += recs
			q.dropped += uint64(res.evicted.recs)
			q.overflowStreak++
			res.streak = q.overflowStreak
			return res
		}
	}
	q.ring[(q.head+q.n)%len(q.ring)] = f
	q.n++
	res.admitted = true
	q.enqFrames++
	q.enqRecords += recs
	q.overflowStreak = 0
	if q.n == 1 {
		// The writer only ever waits on an empty queue, so a signal is
		// needed solely on the empty→non-empty transition; skipping it
		// otherwise keeps the publish path off the cond's notify list.
		q.notEmpty.Signal()
	}
	return res
}

// dequeue blocks for the next frame; ok is false once the queue is
// closed.
func (q *sendQueue) dequeue() (*frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		return nil, false
	}
	f := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	q.notFull.Signal()
	return f, true
}

// close marks the queue closed, wakes all waiters, and returns the
// frames still queued so the caller can release their references.
func (q *sendQueue) close() []*frame {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	var rem []*frame
	for i := 0; i < q.n; i++ {
		idx := (q.head + i) % len(q.ring)
		rem = append(rem, q.ring[idx])
		q.ring[idx] = nil
	}
	q.head, q.n = 0, 0
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	return rem
}

func (q *sendQueue) depth() (n, capacity int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n, len(q.ring)
}

// queueStats is a mutex-consistent snapshot of one send queue's depth
// and traffic counters.
type queueStats struct {
	len, cap       int
	enqFrames      uint64
	enqRecords     uint64
	dropped        uint64
	blockedNanos   uint64
	overflowStreak int64
}

func (q *sendQueue) stats() queueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return queueStats{
		len:            q.n,
		cap:            len(q.ring),
		enqFrames:      q.enqFrames,
		enqRecords:     q.enqRecords,
		dropped:        q.dropped,
		blockedNanos:   q.blockedNanos,
		overflowStreak: q.overflowStreak,
	}
}
