package core

import (
	"time"

	"sysprof/internal/kprof"
	"sysprof/internal/simnet"
)

// Granularity selects what the LPA retains, a runtime knob of the SysProf
// controller ("It can instruct the LPAs to collect statistics for some
// client class rather than for individual interactions").
type Granularity uint8

const (
	// PerInteraction keeps every interaction record (fine grain).
	PerInteraction Granularity = iota + 1
	// PerClass folds records into per-class aggregates only.
	PerClass
)

// Classifier assigns a request class to a completed interaction. The
// default classifies by server port. A Classifier belongs to one LPA: the
// built-in ones cache their names without a lock.
type Classifier func(r *Record) string

// Config configures an LPA.
type Config struct {
	// WindowSize is the sliding window of recent interactions.
	WindowSize int
	// BufferCapacity is each per-CPU double buffer's record capacity.
	BufferCapacity int
	// NumCPUs sets how many per-CPU buffers exist.
	NumCPUs int
	// Granularity selects per-interaction records or per-class aggregates.
	Granularity Granularity
	// Classify assigns request classes; nil uses the port classifier.
	Classify Classifier
	// OnFull receives filled buffer batches (the dissemination daemon).
	// Batches are columnar; use RecordColumns.Row/AppendTo to materialize
	// rows when needed.
	OnFull func(cpu int, batch *RecordColumns, release func())
	// OnComplete, when set, observes every completed record synchronously
	// (used by resource-aware schedulers needing the freshest data).
	OnComplete func(*Record)
	// Hashed selects the hashed flow table (default true); false uses the
	// linear-scan ablation table.
	Linear bool
}

// LPAStats counts analyzer activity.
type LPAStats struct {
	Events       uint64
	Interactions uint64
	OpenFlows    int
	// DroppedEpisodes counts handling episodes replaced before their send
	// (interleaved reads the black-box analyzer cannot attribute).
	DroppedEpisodes uint64
}

// episode tracks one process's handling burst: from reading a request to
// its next send. Its user/kernel/blocked split is attributed to the
// interaction whose message was read, if target still holds it: a flow's
// state is recycled when its interaction closes, so an episode that
// outlives its interaction attributes nothing.
type episode struct {
	target  *open
	id      uint64 // target's record ID at the read
	readAt  time.Duration
	sysAt   time.Duration
	inSys   bool
	sysAcc  time.Duration
	blkAt   time.Duration
	inBlk   bool
	blkAcc  time.Duration
	ctxSw   uint64
	diskOps uint64
}

// LPA is the interaction-tracking Local Performance Analyzer. It
// subscribes to kprof events and runs entirely on the event fast path; its
// handler never blocks.
type LPA struct {
	hub  *kprof.Hub
	node simnet.NodeID
	cfg  Config

	sub      *kprof.Subscription
	table    FlowTable
	window   *Window
	buffers  *BufferSet
	episodes map[int32]*episode
	spare    []*episode // finalized episodes, reused by the next read
	aggs     map[string]*Aggregate

	nextID uint64
	stats  LPAStats
}

// MaskDefault is the event set the interaction LPA needs.
func MaskDefault() kprof.Mask {
	return kprof.MaskNetwork() | kprof.MaskSyscall() |
		kprof.MaskOf(kprof.EvBlock, kprof.EvWake, kprof.EvCtxSwitch, kprof.EvDiskIssue)
}

// PortClassifier returns a classifier that names classes after the server
// port ("port:N"), building each port's name once.
func PortClassifier() Classifier {
	name := interned[uint16]("port:")
	return func(r *Record) string { return name(r.Flow.Dst.Port) }
}

// interned returns a function naming k as prefix followed by k in decimal,
// building each name once. Its cache has no lock: the classifier built on
// it serves one LPA.
func interned[K ~uint16](prefix string) func(K) string {
	names := make(map[K]string)
	return func(k K) string {
		s, ok := names[k]
		if !ok {
			s = prefix + itoa(int(k))
			names[k] = s
		}
		return s
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 && i > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// NewLPA creates an analyzer and registers it with the hub.
func NewLPA(hub *kprof.Hub, cfg Config) *LPA {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 256
	}
	if cfg.BufferCapacity <= 0 {
		cfg.BufferCapacity = 512
	}
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 1
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = PerInteraction
	}
	if cfg.Classify == nil {
		cfg.Classify = PortClassifier()
	}
	a := &LPA{
		hub:      hub,
		node:     hub.Node(),
		cfg:      cfg,
		episodes: make(map[int32]*episode),
		aggs:     make(map[string]*Aggregate),
	}
	if cfg.Linear {
		a.table = NewLinearTable()
	} else {
		a.table = NewHashedTable(8)
	}
	a.buffers = NewBufferSet(cfg.NumCPUs, cfg.BufferCapacity, cfg.OnFull)
	a.window = NewWindow(cfg.WindowSize, func(rec *Record) {
		a.buffers.Push(int(rec.CPU), rec)
	})
	a.sub = hub.Subscribe(MaskDefault(), a.handle)
	return a
}

// Close detaches the analyzer from the hub and flushes all state.
func (a *LPA) Close() {
	a.sub.Close()
	a.FlushOpen()
	a.window.EvictAll()
	a.buffers.FlushAll()
}

// Subscription exposes the kprof subscription so the controller can
// retune the event mask or add filters.
func (a *LPA) Subscription() *kprof.Subscription { return a.sub }

// Window returns the sliding window of recent interactions.
func (a *LPA) Window() *Window { return a.window }

// Buffers returns the per-CPU dissemination buffers.
func (a *LPA) Buffers() *BufferSet { return a.buffers }

// Stats returns analyzer counters.
func (a *LPA) Stats() LPAStats {
	st := a.stats
	st.OpenFlows = a.table.Len()
	return st
}

// SetGranularity switches between per-interaction and per-class retention
// at runtime.
func (a *LPA) SetGranularity(g Granularity) {
	if g == PerInteraction || g == PerClass {
		a.cfg.Granularity = g
	}
}

// Granularity returns the current retention mode.
func (a *LPA) Granularity() Granularity { return a.cfg.Granularity }

// Aggregates returns a copy of the per-class aggregates.
func (a *LPA) Aggregates() map[string]Aggregate {
	out := make(map[string]Aggregate, len(a.aggs))
	for k, v := range a.aggs {
		out[k] = *v
	}
	return out
}

// ResetAggregates clears per-class statistics (e.g. per measurement epoch).
func (a *LPA) ResetAggregates() { a.aggs = make(map[string]*Aggregate) }

// FlushOpen force-closes all in-progress interactions (end of run).
func (a *LPA) FlushOpen() {
	a.table.Each(func(fs *flowState) {
		if fs.cur.phase == phaseResponse {
			a.closeInteraction(fs)
		}
	})
}

// ExpireIdleFlows deletes flow-table entries with no in-progress
// interaction and no wire or send activity at or after cutoff, returning
// how many were removed. The dissemination daemon calls this on its flush
// cadence so conversations that ended long ago stop occupying the table
// (the expired state is per-flow bookkeeping only — completed records
// already left through the window and buffers). Victims are collected
// first and deleted after the scan, since the table forbids deleting
// mid-Each.
func (a *LPA) ExpireIdleFlows(cutoff time.Duration) int {
	var victims []simnet.FlowKey
	limit := int64(cutoff)
	a.table.Each(func(fs *flowState) {
		if fs.cur.phase != phaseIdle {
			return
		}
		last := fs.lastRxAt
		if fs.lastTxAt > last {
			last = fs.lastTxAt
		}
		if fs.lastSendAt > last {
			last = fs.lastSendAt
		}
		if last < limit {
			victims = append(victims, fs.key)
		}
	})
	for _, key := range victims {
		a.table.Delete(key)
	}
	return len(victims)
}

// handle is the kprof callback: the analyzer fast path.
//
//sysprof:nonblocking
func (a *LPA) handle(ev *kprof.Event) {
	a.stats.Events++
	switch ev.Type {
	case kprof.EvNetRx:
		a.onWirePacket(ev, true)
	case kprof.EvNetTx:
		a.onWirePacket(ev, false)
	case kprof.EvNetDeliver:
		a.onDeliver(ev)
	case kprof.EvNetUserRead:
		a.onUserRead(ev)
	case kprof.EvNetSend:
		a.onSend(ev)
	case kprof.EvSyscallEnter:
		if ep := a.episodes[ev.PID]; ep != nil {
			ep.inSys = true
			ep.sysAt = ev.Time
		}
	case kprof.EvSyscallExit:
		if ep := a.episodes[ev.PID]; ep != nil && ep.inSys {
			ep.sysAcc += ev.Time - ep.sysAt
			ep.inSys = false
		}
	case kprof.EvBlock:
		if ep := a.episodes[ev.PID]; ep != nil {
			// Blocking inside a syscall (e.g. a synchronous disk write):
			// pause syscall-time accumulation so the blocked span is not
			// counted twice.
			if ep.inSys {
				ep.sysAcc += ev.Time - ep.sysAt
			}
			ep.inBlk = true
			ep.blkAt = ev.Time
		}
	case kprof.EvWake:
		if ep := a.episodes[ev.PID]; ep != nil && ep.inBlk {
			ep.blkAcc += ev.Time - ep.blkAt
			ep.inBlk = false
			if ep.inSys {
				ep.sysAt = ev.Time // resume syscall accumulation
			}
		}
	case kprof.EvCtxSwitch:
		if ep := a.episodes[ev.PID2]; ep != nil {
			ep.ctxSw++
		}
	case kprof.EvDiskIssue:
		if ep := a.episodes[ev.PID]; ep != nil {
			ep.diskOps++
		}
	}
}

// inbound reports whether the event's packet travels toward this node.
func (a *LPA) inbound(flow simnet.FlowKey) bool { return flow.Dst.Node == a.node }

// onWirePacket processes net_rx (inbound) and net_tx (outbound) events:
// the message/interaction state machine on packet direction runs.
func (a *LPA) onWirePacket(ev *kprof.Event, rx bool) {
	fs := a.table.Get(ev.Flow)
	if fs.reqDir == (simnet.FlowKey{}) {
		fs.reqDir = ev.Flow
	}
	isReq := ev.Flow == fs.reqDir
	if rx {
		fs.lastRxAt = int64(ev.Time)
	} else {
		fs.lastTxAt = int64(ev.Time)
	}

	if isReq {
		// A request-direction packet after a response closes the previous
		// interaction and opens the next.
		if fs.cur.phase == phaseResponse {
			a.closeInteraction(fs)
		}
		if o := &fs.cur; o.phase == phaseIdle {
			// An idle flow's interaction is zero (closeInteraction
			// leaves it so): the next one opens in place.
			a.nextID++
			o.rec.ID, o.rec.Node, o.rec.Flow, o.rec.Start = a.nextID, a.node, fs.reqDir, ev.Time
			o.phase, o.lastTxAt = phaseRequest, -1
		}
		fs.cur.rec.ReqPackets++
		fs.cur.rec.ReqBytes += int(ev.Bytes)
		return
	}

	// Response-direction packet.
	if fs.cur.phase == phaseIdle {
		// A response with no observed request (e.g. monitoring attached
		// mid-conversation): ignore until the next request run.
		return
	}
	fs.cur.phase = phaseResponse
	fs.cur.rec.RespPackets++
	fs.cur.rec.RespBytes += int(ev.Bytes)
	fs.cur.rec.CPU = ev.CPU
	fs.cur.lastTxAt = int64(ev.Time)
}

func (a *LPA) onDeliver(ev *kprof.Event) {
	fs := a.table.Get(ev.Flow)
	if fs.cur.phase == phaseIdle {
		return
	}
	// Inbound protocol processing: time since the flow's last NIC arrival.
	if fs.lastRxAt >= 0 && int64(ev.Time) >= fs.lastRxAt {
		fs.cur.rec.ProtoTime += ev.Time - time.Duration(fs.lastRxAt)
	}
}

func (a *LPA) onUserRead(ev *kprof.Event) {
	fs := a.table.Get(ev.Flow)
	o := &fs.cur
	if o.phase == phaseIdle {
		return
	}
	o.rec.BufferWait += time.Duration(ev.Aux)
	if ev.Flow == fs.reqDir {
		// The reader is this interaction's server.
		o.rec.ServerPID = ev.PID
		o.rec.ServerProc = ev.Proc
	}
	// Open a handling episode for the reading process, targeting this
	// interaction. A still-open episode means interleaved reads the
	// black-box analyzer cannot attribute; it is finalized as of now.
	if old := a.episodes[ev.PID]; old != nil {
		a.stats.DroppedEpisodes++
		a.finalizeEpisode(ev.PID, old, ev.Time)
	}
	var ep *episode
	if n := len(a.spare); n > 0 {
		ep, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		ep = new(episode)
	}
	*ep = episode{target: o, id: o.rec.ID, readAt: ev.Time}
	a.episodes[ev.PID] = ep
}

func (a *LPA) onSend(ev *kprof.Event) {
	fs := a.table.Get(ev.Flow)
	fs.lastSendAt = int64(ev.Time)
	// The send marks the end of the sender's handling episode. Outbound
	// protocol (TxTime) is derived at close from lastSendAt/lastTxAt.
	if ep := a.episodes[ev.PID]; ep != nil {
		a.finalizeEpisode(ev.PID, ep, ev.Time)
	}
}

// finalizeEpisode attributes an episode's split to its interaction, if
// that is still open, and returns the episode to the spares.
func (a *LPA) finalizeEpisode(pid int32, ep *episode, now time.Duration) {
	delete(a.episodes, pid)
	a.spare = append(a.spare, ep)
	if ep.target.rec.ID != ep.id {
		return
	}
	if ep.inSys {
		ep.sysAcc += now - ep.sysAt
	}
	if ep.inBlk {
		ep.blkAcc += now - ep.blkAt
	}
	elapsed := now - ep.readAt
	user := elapsed - ep.sysAcc - ep.blkAcc
	if user < 0 {
		user = 0
	}
	rec := &ep.target.rec
	rec.UserTime += user
	rec.SyscallTime += ep.sysAcc
	rec.BlockedTime += ep.blkAcc
	rec.CtxSwitches += ep.ctxSw
	rec.DiskOps += ep.diskOps
}

// closeInteraction completes fs.cur, emits its record and leaves the flow
// idle.
func (a *LPA) closeInteraction(fs *flowState) {
	o := &fs.cur
	if o.lastTxAt >= 0 {
		o.rec.End = time.Duration(o.lastTxAt)
	} else {
		o.rec.End = o.rec.Start
	}
	// Outbound protocol time: approximate as response packets' share of
	// send-to-wire lag; derived from the last send and last wire event.
	if fs.lastSendAt >= 0 && o.lastTxAt > fs.lastSendAt {
		o.rec.TxTime += time.Duration(o.lastTxAt - fs.lastSendAt)
	}
	o.rec.Class = a.cfg.Classify(&o.rec)
	a.stats.Interactions++

	if a.cfg.OnComplete != nil {
		// The hook may keep its record, and o is the flow's next
		// interaction.
		rec := o.rec
		a.cfg.OnComplete(&rec)
	}
	switch a.cfg.Granularity {
	case PerClass:
		agg := a.aggs[o.rec.Class]
		if agg == nil {
			agg = &Aggregate{Class: o.rec.Class}
			a.aggs[o.rec.Class] = agg
		}
		agg.Add(&o.rec)
	default:
		a.window.Add(&o.rec)
	}
	*o = open{}
}
