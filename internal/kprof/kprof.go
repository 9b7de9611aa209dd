// Package kprof is the SysProf monitoring interface (paper §2, "Kprof").
//
// The simulated kernel (internal/simos) is statically instrumented at a set
// of key points — scheduling, system calls, network protocol processing,
// and file-system operations — exactly mirroring the paper's LTT-style
// static instrumentation of Linux 2.4. Each point calls Hub.Emit with a
// compact binary event.
//
// Analyzers (LPAs, package core) register callbacks with a Hub, declaring
// the set of event types they want (a bitmask) plus optional PID and flow
// predicates. When nothing subscribes to a type, emitting it costs a single
// branch — the paper's "almost negligible perturbation" when monitoring is
// off. When events are delivered, the Hub reports the CPU time the
// instrumentation consumed so the simulated kernel can charge it to the
// node's CPU; this is how monitoring overhead perturbs the system under
// observation, just as it does on real hardware.
//
// # Concurrency contract
//
// Emit runs on the kernel fast path and must be called from at most one
// goroutine at a time (the simulated kernel's execution context). It never
// locks and never allocates: it reads an immutable per-event-type dispatch
// list through a single atomic load.
//
// Everything on the control plane — Subscribe, Subscription.Close,
// SetMask, SetPIDFilter, SetGIDFilter, SetFlowFilter — may be called from
// any goroutine at any time, including while another goroutine is inside
// Emit. Control-plane mutations serialize on an internal mutex and publish
// new dispatch lists copy-on-write, so an in-flight Emit keeps delivering
// against the list it loaded; the change takes effect on the next Emit.
//
// Hub counters are updated on the emit path without synchronization (an
// atomic add per event would triple the cost of the paper's
// monitoring-off fast path). Call StatsSnapshot from the emitting
// goroutine, or after emission has quiesced, for exact values.
//
// SetPerEventCost is a configuration-time knob: set it before the first
// Emit.
package kprof

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sysprof/internal/simnet"
)

// EventType enumerates the kernel instrumentation points. The groups match
// the paper's four major event classes: scheduling, system call, network,
// and file system.
type EventType uint8

const (
	// Scheduling events.
	EvCtxSwitch EventType = iota + 1
	EvProcCreate
	EvProcExit
	EvBlock
	EvWake

	// System-call events.
	EvSyscallEnter
	EvSyscallExit

	// Network events, in packet-path order.
	EvNetRx       // packet arrived at the NIC
	EvNetDeliver  // protocol processing done; packet in socket recv buffer
	EvNetUserRead // user process consumed the packet's data
	EvNetSend     // send syscall handed data to the kernel
	EvNetTx       // packet handed to the wire

	// File-system / disk events.
	EvFSOpen
	EvFSClose
	EvFSRead
	EvFSWrite
	EvDiskIssue
	EvDiskDone

	numEventTypes
)

var eventNames = [...]string{
	EvCtxSwitch:    "ctx_switch",
	EvProcCreate:   "proc_create",
	EvProcExit:     "proc_exit",
	EvBlock:        "block",
	EvWake:         "wake",
	EvSyscallEnter: "syscall_enter",
	EvSyscallExit:  "syscall_exit",
	EvNetRx:        "net_rx",
	EvNetDeliver:   "net_deliver",
	EvNetUserRead:  "net_user_read",
	EvNetSend:      "net_send",
	EvNetTx:        "net_tx",
	EvFSOpen:       "fs_open",
	EvFSClose:      "fs_close",
	EvFSRead:       "fs_read",
	EvFSWrite:      "fs_write",
	EvDiskIssue:    "disk_issue",
	EvDiskDone:     "disk_done",
}

// String returns the event type's short name.
func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Valid reports whether t is a defined event type.
func (t EventType) Valid() bool { return t >= EvCtxSwitch && t < numEventTypes }

// NumEventTypes is the count of defined types plus one (types start at 1).
const NumEventTypes = int(numEventTypes)

// Mask is a bit set of event types.
type Mask uint32

// MaskOf builds a mask from types.
func MaskOf(types ...EventType) Mask {
	var m Mask
	for _, t := range types {
		m |= 1 << t
	}
	return m
}

// MaskAll selects every defined event type.
func MaskAll() Mask {
	var m Mask
	for t := EvCtxSwitch; t < numEventTypes; t++ {
		m |= 1 << t
	}
	return m
}

// MaskScheduling selects the scheduling event group.
func MaskScheduling() Mask {
	return MaskOf(EvCtxSwitch, EvProcCreate, EvProcExit, EvBlock, EvWake)
}

// MaskSyscall selects the system-call event group.
func MaskSyscall() Mask { return MaskOf(EvSyscallEnter, EvSyscallExit) }

// MaskNetwork selects the network event group.
func MaskNetwork() Mask {
	return MaskOf(EvNetRx, EvNetDeliver, EvNetUserRead, EvNetSend, EvNetTx)
}

// MaskFS selects the file-system/disk event group.
func MaskFS() Mask {
	return MaskOf(EvFSOpen, EvFSClose, EvFSRead, EvFSWrite, EvDiskIssue, EvDiskDone)
}

// Has reports whether the mask contains t.
func (m Mask) Has(t EventType) bool { return m&(1<<t) != 0 }

// Event is one binary monitoring record. Fields beyond Type/Time/Node/PID
// are type-specific; unused fields are zero. The struct is fixed-size and
// passed by pointer on the emit path to avoid allocation.
type Event struct {
	Type EventType
	CPU  uint8
	Node simnet.NodeID
	PID  int32
	PID2 int32 // ctx_switch: incoming PID; wake: waker PID
	// GID is the emitting process's group id (0 = default group).
	GID  int32
	Time time.Duration

	// Network fields.
	Flow  simnet.FlowKey
	MsgID uint64
	Seq   int32
	Last  bool
	Bytes int32

	// Aux carries type-specific data: syscall id for syscall events, disk
	// op id for disk events, and the socket-buffer residence time in
	// nanoseconds for net_user_read.
	Aux int64

	// Tag is the ARM-style activity id carried by tagged network traffic
	// (zero when the application did not tag the message).
	Tag uint64

	// Proc is the process name, set on proc_create and net_user_read so
	// analyzers can report which server handled an interaction.
	Proc string
}

// Handler consumes events. Handlers run synchronously on the kernel fast
// path (possibly "in interrupt context" in the paper's terms) and must not
// block; they should be computationally small.
type Handler func(ev *Event)

// Subscription is one analyzer's registration with a Hub. Its setters are
// safe to call from any goroutine while the hub is emitting (see the
// package comment's concurrency contract).
type Subscription struct {
	hub     *Hub
	id      int
	handler Handler

	// mask and closed are guarded by hub.mu.
	mask   Mask
	closed bool

	// Filter predicates are read by Emit through atomic pointers so they
	// can be swapped mid-stream without tearing. A nil pointer means "no
	// filter".
	pid  atomic.Pointer[func(int32) bool]
	gid  atomic.Pointer[func(int32) bool]
	flow atomic.Pointer[func(simnet.FlowKey) bool]
}

// SubOption customizes a subscription.
type SubOption func(*Subscription)

// WithPIDFilter prunes events to those whose PID satisfies keep. Events
// without a meaningful PID (PID == 0, e.g. pure interrupt work) are always
// delivered.
func WithPIDFilter(keep func(int32) bool) SubOption {
	return func(s *Subscription) { s.SetPIDFilter(keep) }
}

// WithFlowFilter prunes network events to flows satisfying keep.
func WithFlowFilter(keep func(simnet.FlowKey) bool) SubOption {
	return func(s *Subscription) { s.SetFlowFilter(keep) }
}

// WithGIDFilter prunes events to those whose process group satisfies
// keep. Events without a PID (pure interrupt work) always pass.
func WithGIDFilter(keep func(int32) bool) SubOption {
	return func(s *Subscription) { s.SetGIDFilter(keep) }
}

// SetMask atomically replaces the subscription's event set. The controller
// uses this to change monitoring granularity at runtime; it is safe while
// the hub is emitting (the new mask applies from the next Emit).
func (s *Subscription) SetMask(m Mask) {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.closed || s.mask == m {
		return
	}
	s.mask = m
	h.rebuildLocked()
}

// Mask returns the current event set.
func (s *Subscription) Mask() Mask {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.mask
}

// SetPIDFilter installs or clears (nil) the subscription's PID predicate
// at runtime. The controller exposes this so operators can narrow
// monitoring to specific processes ("events can also be pruned on the
// basis of process IDs, group IDs, or other such predicates").
func (s *Subscription) SetPIDFilter(keep func(int32) bool) {
	if keep == nil {
		s.pid.Store(nil)
		return
	}
	s.pid.Store(&keep)
}

// SetFlowFilter installs or clears (nil) the flow predicate at runtime.
func (s *Subscription) SetFlowFilter(keep func(simnet.FlowKey) bool) {
	if keep == nil {
		s.flow.Store(nil)
		return
	}
	s.flow.Store(&keep)
}

// SetGIDFilter installs or clears (nil) the group predicate at runtime.
func (s *Subscription) SetGIDFilter(keep func(int32) bool) {
	if keep == nil {
		s.gid.Store(nil)
		return
	}
	s.gid.Store(&keep)
}

// Close deregisters the subscription. When the last subscriber of a type
// leaves, that type's instrumentation point reverts to a single branch.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i, cur := range h.subs {
		if cur == s {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			break
		}
	}
	h.rebuildLocked()
}

// Stats holds Hub counters.
type Stats struct {
	// Emitted counts Emit calls for enabled types (events that were built).
	Emitted uint64
	// Delivered counts handler invocations (one event can be delivered to
	// several subscribers).
	Delivered uint64
	// Suppressed counts Emit calls for types with no subscriber.
	Suppressed uint64
	// Overhead is the cumulative CPU time charged for instrumentation.
	Overhead time.Duration
}

// subList is an immutable snapshot of the subscribers interested in one
// event type. Emit loads it with a single atomic operation; the control
// plane replaces it wholesale (copy-on-write) under Hub.mu.
type subList []*Subscription

// Hub dispatches instrumentation events on one node.
type Hub struct {
	node  simnet.NodeID
	clock func() time.Duration

	// mu serializes the control plane (Subscribe/Close/SetMask). It is
	// never taken by Emit.
	mu     sync.Mutex
	subs   []*Subscription
	nextID int

	// dispatch[t] is the list of subscribers whose mask includes t, so
	// emit cost is O(interested subscribers) rather than O(all
	// subscribers). A nil or empty list makes the instrumentation point a
	// single load-and-branch.
	dispatch [numEventTypes]atomic.Pointer[subList]

	// perEventCost is CPU time charged per delivered event (building the
	// binary record + running the callback).
	perEventCost time.Duration

	// stats is written only by the emitting goroutine; see the package
	// comment for the snapshot contract.
	stats Stats
}

// DefaultPerEventCost approximates the cost of one LTT-style binary event:
// building the record, hashing, and running a small in-kernel callback.
// Calibrated so the iperf micro-benchmark reproduces the paper's ~13%
// bandwidth loss at 1 Gbps (see internal/bench).
const DefaultPerEventCost = 700 * time.Nanosecond

// NewHub returns a Hub for a node. clock supplies node-local timestamps;
// pass the node's (possibly skewed) clock so cross-node correlation in the
// GPA faces the same problem the paper solves with NTP.
func NewHub(node simnet.NodeID, clock func() time.Duration) *Hub {
	return &Hub{node: node, clock: clock, perEventCost: DefaultPerEventCost}
}

// SetPerEventCost overrides the CPU cost charged per delivered event.
// Zero disables overhead accounting (an idealized, free monitor — used by
// ablation benchmarks).
func (h *Hub) SetPerEventCost(d time.Duration) { h.perEventCost = d }

// PerEventCost returns the configured per-event CPU cost.
func (h *Hub) PerEventCost() time.Duration { return h.perEventCost }

// Node returns the node this hub instruments.
func (h *Hub) Node() simnet.NodeID { return h.node }

// Now returns the hub's node-local time.
func (h *Hub) Now() time.Duration { return h.clock() }

// Enabled reports whether any subscriber wants t. Instrumentation points
// call this first and skip event construction entirely when false.
//
//sysprof:nonblocking
func (h *Hub) Enabled(t EventType) bool {
	if !t.Valid() {
		return false
	}
	lp := h.dispatch[t].Load()
	return lp != nil && len(*lp) > 0
}

// Subscribe registers a handler for the event types in mask.
func (h *Hub) Subscribe(mask Mask, handler Handler, opts ...SubOption) *Subscription {
	s := &Subscription{hub: h, handler: handler, mask: mask}
	for _, opt := range opts {
		opt(s)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s.id = h.nextID
	h.nextID++
	h.subs = append(h.subs, s)
	h.rebuildLocked()
	return s
}

// rebuildLocked recomputes every per-type dispatch list from h.subs and
// publishes the new lists atomically. Callers hold h.mu. Subscribers keep
// their registration order within each list, so delivery order matches the
// pre-dispatch-list behaviour.
func (h *Hub) rebuildLocked() {
	for t := EvCtxSwitch; t < numEventTypes; t++ {
		var list subList
		for _, s := range h.subs {
			if s.mask.Has(t) {
				list = append(list, s)
			}
		}
		h.dispatch[t].Store(&list)
	}
}

// Emit delivers ev to all matching subscribers and returns the CPU time
// the instrumentation consumed, which the caller (the simulated kernel)
// must charge to the current CPU. The event's Time and Node fields are
// stamped by the hub.
//
//sysprof:nonblocking
func (h *Hub) Emit(ev *Event) time.Duration {
	var lp *subList
	if ev.Type.Valid() {
		lp = h.dispatch[ev.Type].Load()
	}
	if lp == nil || len(*lp) == 0 {
		h.stats.Suppressed++
		return 0
	}
	ev.Time = h.clock()
	ev.Node = h.node
	h.stats.Emitted++

	var delivered int
	for _, s := range *lp {
		if f := s.pid.Load(); f != nil && ev.PID != 0 && !(*f)(ev.PID) {
			continue
		}
		if f := s.gid.Load(); f != nil && ev.PID != 0 && !(*f)(ev.GID) {
			continue
		}
		if f := s.flow.Load(); f != nil && ev.Flow != (simnet.FlowKey{}) && !(*f)(ev.Flow) {
			continue
		}
		s.handler(ev)
		delivered++
	}
	if delivered == 0 {
		return 0
	}
	h.stats.Delivered += uint64(delivered)
	cost := h.perEventCost * time.Duration(delivered)
	h.stats.Overhead += cost
	return cost
}

// StatsSnapshot returns a copy of the hub counters (see the package
// comment for when a concurrent snapshot is exact).
func (h *Hub) StatsSnapshot() Stats { return h.stats }
