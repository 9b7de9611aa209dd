package scenario

import (
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
)

// shardSub drives one GPA shard's subscriber connection in virtual time.
// The queue, its block-or-shed decision, eviction streak and drain estimate
// are the broker's own (pubsub.Queue, pubsub.DrainEstimate); this type is
// only their driver — what pubsub's sendQueue and writer goroutine are on a
// real clock, whose OS scheduling would make byte-identical reports
// impossible. Like that writer it pops a frame before it starts on it; a
// publisher that must wait for a slot is a parked frame with a deadline
// event. Chaos sets slowFactor, flaps it (setDetached) or kills it.
type shardSub struct {
	idx int
	eng *sim.Engine
	g   *gpa.GPA
	m   *MonitorSpec

	// The current connection. A reattach starts a fresh queue and estimate,
	// as a re-dialled broker connection would, under the running counters.
	q   pubsub.Queue[*core.RecordColumns]
	est *pubsub.DrainEstimate
	// inflight is the size of the popped frame the GPA is ingesting until
	// drainTimer fires (0 = idle); parked are the publishers blocked on a
	// full queue, oldest first.
	inflight   uint64
	drainTimer *sim.Event
	parked     []parkedFrame

	slowFactor float64 // slow-subscriber chaos: scales the per-frame drain time
	state      subState
	// lost[st] is the records charged to leaving the attached state for st:
	// those the connection held at that moment and those offered since.
	lost [dead + 1]uint64

	// The harness's own counters; the report reads the rest off q.Counts.
	offered     uint64
	blockAdmits uint64
	blockedFor  time.Duration
	flaps       uint64
}

// subState is what chaos has done to the subscriber. Only an attached one
// is offered frames; death overrides the other two.
type subState uint8

const (
	attached subState = iota
	detached
	evicted
	dead
)

// parkedFrame is one publisher waiting out the block deadline.
type parkedFrame struct {
	f        *core.RecordColumns
	since    time.Duration
	deadline *sim.Event
}

func newShardSub(idx int, eng *sim.Engine, g *gpa.GPA, m *MonitorSpec) *shardSub {
	s := &shardSub{idx: idx, eng: eng, g: g, m: m, slowFactor: 1}
	s.connect()
	return s
}

func (s *shardSub) connect() {
	counts := s.q.Counts
	s.q = pubsub.NewQueue[*core.RecordColumns](s.m.QueueDepth, s.m.EvictAfter)
	s.q.Counts = counts
	s.est = new(pubsub.DrainEstimate)
	s.state = attached
}

// effDrain is the per-frame ingest time under the current slowdown.
func (s *shardSub) effDrain() time.Duration {
	return time.Duration(float64(s.m.DrainPerFrame) * s.slowFactor)
}

// offer hands the subscriber one routed frame (never an empty one), with
// the router's block-or-shed decision for a full queue. The frame is owned
// by the subscriber from here on.
func (s *shardSub) offer(f *core.RecordColumns, block bool) {
	n := uint64(f.Len())
	s.offered += n
	if s.state != attached {
		s.lost[s.state] += n
		return
	}
	a := s.q.Offer(f, n, block)
	if a.Outcome != pubsub.WouldBlock {
		s.settle(a)
		return
	}
	// The publisher waits: for the slot the next pop frees, or its deadline.
	p := parkedFrame{f: f, since: s.eng.Now()}
	p.deadline = s.eng.After(s.m.BlockTimeout, func() {
		s.parked = s.parked[1:] // equal timeouts: the oldest expires first
		s.settle(s.q.Refuse(n))
	})
	s.parked = append(s.parked, p)
}

// settle acts on the machine's verdict: evict on sustained overflow (the
// broker's "persistently slow subscribers are cheaper gone"), and make
// sure the drain loop of a subscriber still attached is running.
func (s *shardSub) settle(a pubsub.Admission[*core.RecordColumns]) {
	if a.Evict {
		s.disconnect(evicted)
	}
	s.kick()
}

// kick pops the next frame if the subscriber is idle and attached, hands
// the freed slot to the longest-blocked publisher, and schedules the
// frame's ingest one drain time out.
func (s *shardSub) kick() {
	if s.inflight != 0 || s.state != attached {
		return
	}
	f, ok := s.q.Pop()
	if !ok {
		return
	}
	if len(s.parked) > 0 {
		p := s.parked[0]
		s.parked = s.parked[1:]
		p.deadline.Cancel()
		s.blockAdmits++
		s.blockedFor += s.eng.Now() - p.since
		s.q.Offer(p.f, uint64(p.f.Len()), true)
	}
	d := s.effDrain()
	s.inflight = uint64(f.Len())
	s.drainTimer = s.eng.After(d, func() {
		s.inflight = 0
		s.est.Note(dissem.ChannelInteractions, int64(d))
		s.g.IngestColumns(f)
		s.kick()
	})
}

// disconnect is the broker's dropConn: the frame in flight is lost with
// the socket, the queue is closed and what it held discarded, and blocked
// publishers return empty-handed — all of it charged to the new state,
// as is every later offer. Queries against a dead shard come back partial.
func (s *shardSub) disconnect(to subState) {
	before := s.q.Counts.Discarded
	if s.inflight != 0 {
		s.drainTimer.Cancel()
		s.q.Lose(s.inflight)
		s.inflight = 0
	}
	s.q.Close()
	s.lost[to] += s.q.Counts.Discarded - before
	for _, p := range s.parked {
		p.deadline.Cancel()
		s.lost[to] += uint64(p.f.Len())
	}
	s.parked = nil
	s.state = to
}

// setDetached flips the flapping state.
func (s *shardSub) setDetached(on bool) {
	switch {
	case on && s.state == attached:
		s.disconnect(detached)
		s.flaps++
	case !on && s.state == detached:
		s.connect()
	}
}

// queuedRecords is the residual at snapshot time: queued, in flight, or
// with a publisher still blocked.
func (s *shardSub) queuedRecords() uint64 {
	n := s.q.QueuedRecords() + s.inflight
	for _, p := range s.parked {
		n += uint64(p.f.Len())
	}
	return n
}
