package main

import (
	"math/rand"

	"sysprof/internal/kprof"
	"sysprof/internal/simnet"
)

// The simulated cluster every workload generates events for: one client
// node and one server node, four server ports (request classes) and eight
// server processes.
const (
	clientNode simnet.NodeID = 1
	serverNode simnet.NodeID = 2

	baseEvents  = 12 // events of one interaction without the blocking extras
	extraEvents = 4  // block, disk_issue, wake, ctx_switch

	// shapeCount is prime so the shape cycle never lines up with a
	// power-of-two flow count.
	shapeCount = 4093
)

var serverPorts = [4]uint16{80, 443, 3306, 8080}

// shape is the seeded part of one interaction.
type shape struct {
	reqBytes, respBytes int32
	bufWait             int64 // socket-buffer residence handed to net_user_read, ns
	blocks              bool  // the server blocks on disk while handling it
}

// scriptGen turns a seed into the common event script: per interaction the
// client emits net_send, net_tx; the server net_rx, net_deliver,
// net_user_read, syscall_enter, syscall_exit, net_send, net_tx; the client
// net_rx, net_deliver, net_user_read. A seeded quarter of interactions add
// block, disk_issue, wake and ctx_switch inside the server's system call.
// Flows are visited round-robin, so an interaction closes (the LPA sees the
// flow's next request) exactly one lap later.
type scriptGen struct {
	flows  []simnet.FlowKey // request direction, client -> server
	shapes []shape
	flow   int
	shape  int

	interactions uint64
	events       uint64

	// ev is reused for every emit: Hub.Emit hands its argument to handler
	// closures, so a fresh local would escape to the heap once per event.
	ev kprof.Event

	// tr, when set, receives a span around one emit in emitSample.
	tr    *tracer
	calls uint64
}

const emitSample = 64

func newScriptGen(seed int64, flows int) *scriptGen {
	rng := rand.New(rand.NewSource(seed))
	g := &scriptGen{
		flows:  make([]simnet.FlowKey, flows),
		shapes: make([]shape, shapeCount),
	}
	for i := range g.flows {
		g.flows[i] = simnet.FlowKey{
			Src: simnet.Addr{Node: clientNode, Port: uint16(10000 + i)},
			Dst: simnet.Addr{Node: serverNode, Port: serverPorts[rng.Intn(len(serverPorts))]},
		}
	}
	for i := range g.shapes {
		g.shapes[i] = shape{
			reqBytes:  int32(64 + rng.Intn(1400)),
			respBytes: int32(256 + rng.Intn(8192)),
			bufWait:   int64(2000 + rng.Intn(400000)),
			blocks:    rng.Intn(4) == 0,
		}
	}
	return g
}

func (g *scriptGen) emit(h *kprof.Hub) {
	g.events++
	if g.tr != nil {
		if g.calls++; g.calls%emitSample == 0 {
			g.tr.emitSpan(h, &g.ev)
			return
		}
	}
	h.Emit(&g.ev)
}

// interaction emits the next interaction's events into the two hubs (the
// same hub twice for a single-node workload) and returns how many it sent.
func (g *scriptGen) interaction(client, server *kprof.Hub) int {
	idx := g.flow
	req := g.flows[idx]
	if g.flow++; g.flow == len(g.flows) {
		g.flow = 0
	}
	sh := &g.shapes[g.shape]
	if g.shape++; g.shape == len(g.shapes) {
		g.shape = 0
	}
	g.interactions++
	resp := req.Reverse()
	cpid := int32(1000 + idx%16)
	spid := int32(100 + idx%8)
	msg := g.interactions

	g.ev = kprof.Event{Type: kprof.EvNetSend, PID: cpid, Flow: req, Bytes: sh.reqBytes}
	g.emit(client)
	g.ev = kprof.Event{Type: kprof.EvNetTx, Flow: req, MsgID: msg, Last: true, Bytes: sh.reqBytes}
	g.emit(client)

	g.ev = kprof.Event{Type: kprof.EvNetRx, Flow: req, MsgID: msg, Last: true, Bytes: sh.reqBytes}
	g.emit(server)
	g.ev = kprof.Event{Type: kprof.EvNetDeliver, Flow: req, MsgID: msg, Bytes: sh.reqBytes}
	g.emit(server)
	g.ev = kprof.Event{Type: kprof.EvNetUserRead, PID: spid, Flow: req, Bytes: sh.reqBytes, Aux: sh.bufWait, Proc: "httpd"}
	g.emit(server)
	g.ev = kprof.Event{Type: kprof.EvSyscallEnter, PID: spid, Aux: 3, Proc: "read"}
	g.emit(server)
	n := baseEvents
	if sh.blocks {
		g.ev = kprof.Event{Type: kprof.EvBlock, PID: spid}
		g.emit(server)
		g.ev = kprof.Event{Type: kprof.EvDiskIssue, PID: spid, Aux: int64(msg)}
		g.emit(server)
		g.ev = kprof.Event{Type: kprof.EvWake, PID: spid}
		g.emit(server)
		g.ev = kprof.Event{Type: kprof.EvCtxSwitch, PID: 1, PID2: spid}
		g.emit(server)
		n += extraEvents
	}
	g.ev = kprof.Event{Type: kprof.EvSyscallExit, PID: spid, Aux: 3, Proc: "read"}
	g.emit(server)
	g.ev = kprof.Event{Type: kprof.EvNetSend, PID: spid, Flow: resp, Bytes: sh.respBytes}
	g.emit(server)
	g.ev = kprof.Event{Type: kprof.EvNetTx, Flow: resp, MsgID: msg, Last: true, Bytes: sh.respBytes}
	g.emit(server)

	g.ev = kprof.Event{Type: kprof.EvNetRx, Flow: resp, MsgID: msg, Last: true, Bytes: sh.respBytes}
	g.emit(client)
	g.ev = kprof.Event{Type: kprof.EvNetDeliver, Flow: resp, MsgID: msg, Bytes: sh.respBytes}
	g.emit(client)
	g.ev = kprof.Event{Type: kprof.EvNetUserRead, PID: cpid, Flow: resp, Bytes: sh.respBytes, Aux: sh.bufWait / 4, Proc: "client"}
	g.emit(client)
	return n
}
