//go:build !race

package kprof

import (
	"testing"
	"time"

	"sysprof/internal/simnet"
)

var sinkBool bool

// TestEmitAllocs guards the instrumentation point's "nearly free" claim:
// Enabled and every path through Emit — an invalid type, a type nobody
// subscribes to, each filter rejecting, and delivery — allocate nothing.
// Values are multi-digit on purpose: Go boxes integers below 256 and
// builds one-byte strings without allocating, so a PID of 3 would hide a
// fmt.Sprintf of it. The race detector instruments allocations, so the
// guard is built out under -race; CI runs it in a separate step without.
func TestEmitAllocs(t *testing.T) {
	flow := simnet.FlowKey{
		Src: simnet.Addr{Node: 1017, Port: 43210},
		Dst: simnet.Addr{Node: 2042, Port: 8080},
	}
	ev := Event{Type: EvNetRx, PID: 12345, GID: 4242, Flow: flow, MsgID: 987654321, Bytes: 1460, Aux: 250000, Proc: "httpd"}
	hubWith := func(opts ...SubOption) *Hub {
		h := NewHub(1017, func() time.Duration { return 1500 * time.Millisecond })
		if opts != nil {
			h.Subscribe(MaskNetwork(), func(ev *Event) { sinkBool = ev.Last }, opts...)
		}
		return h
	}
	bare := hubWith()
	delivered := 0
	open := hubWith()
	open.Subscribe(MaskNetwork(), func(*Event) { delivered++ },
		WithPIDFilter(func(pid int32) bool { return pid == 12345 }),
		WithGIDFilter(func(gid int32) bool { return gid == 4242 }),
		WithFlowFilter(func(f simnet.FlowKey) bool { return f == flow }))
	pidRejects := hubWith(WithPIDFilter(func(pid int32) bool { return pid == 54321 }))
	gidRejects := hubWith(WithGIDFilter(func(gid int32) bool { return gid == 2424 }))
	flowRejects := hubWith(WithFlowFilter(func(f simnet.FlowKey) bool { return f == flow.Reverse() }))
	invalid := ev
	invalid.Type = EventType(200)

	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"enabled", func() { sinkBool = open.Enabled(EvNetRx) }},
		{"enabled-invalid-type", func() { sinkBool = open.Enabled(invalid.Type) }},
		{"emit-invalid-type", func() { open.Emit(&invalid) }},
		{"emit-no-subscriber", func() { bare.Emit(&ev) }},
		{"emit-pid-rejected", func() { pidRejects.Emit(&ev) }},
		{"emit-gid-rejected", func() { gidRejects.Emit(&ev) }},
		{"emit-flow-rejected", func() { flowRejects.Emit(&ev) }},
		{"emit-delivered", func() { open.Emit(&ev) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.2f allocs per call, want 0", tc.name, allocs)
		}
	}
	if delivered == 0 {
		t.Fatal("emit-delivered delivered nothing")
	}
	for _, h := range []*Hub{pidRejects, gidRejects, flowRejects} {
		if st := h.StatsSnapshot(); st.Emitted == 0 || st.Delivered != 0 {
			t.Fatalf("a rejecting hub emitted %d and delivered %d events, want >0 and 0", st.Emitted, st.Delivered)
		}
	}
}
