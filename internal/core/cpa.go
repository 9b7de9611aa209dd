package core

import (
	"fmt"

	"sysprof/internal/ecode"
	"sysprof/internal/kprof"
)

// CPA is a Custom Performance Analyzer: an E-Code program installed at
// runtime that runs on the kernel event fast path, exactly like a built-in
// LPA ("custom analyzers can be dynamically created and downloaded into
// the kernel ... specified in the form of E-Code, compiled through
// run-time code generation").
//
// The program sees each event as a record named "ev" and may call
// emit(channel, value) to publish derived data (routed to the
// dissemination daemon's pub-sub channels by the host).
//
// Installation is gated by the E-Code verifier: NewCPA re-verifies the
// source regardless of what any frontend already checked, then compiles
// the proven-safe program to specialized closures. The kernel fast path
// therefore never runs an unbounded or blocking analyzer, and never
// pays for a step counter, because termination is proven. Nor does a
// run allocate, emit included, unless the program concatenates strings
// itself: TestCPAHandleAllocs holds an emitting run to zero.
type CPA struct {
	name string
	sub  *kprof.Subscription
	inst *ecode.CompiledInstance
	cost int

	runs    uint64
	errs    uint64
	lastErr error
}

// eventFields is what a CPA may read of the kernel event bound as "ev":
// the stable CPA-visible schema the verifier checks sources against and,
// row for row, the getters the compiled program calls. A new
// CPA-visible field is one more row.
var eventFields = ecode.Bind("ev",
	ecode.Str("type", func(e *kprof.Event) string { return e.Type.String() }),
	ecode.Int("time", func(e *kprof.Event) int64 { return int64(e.Time) }),
	ecode.Int("node", func(e *kprof.Event) int64 { return int64(e.Node) }),
	ecode.Int("cpu", func(e *kprof.Event) int64 { return int64(e.CPU) }),
	ecode.Int("pid", func(e *kprof.Event) int64 { return int64(e.PID) }),
	ecode.Int("pid2", func(e *kprof.Event) int64 { return int64(e.PID2) }),
	ecode.Int("bytes", func(e *kprof.Event) int64 { return int64(e.Bytes) }),
	ecode.Int("aux", func(e *kprof.Event) int64 { return e.Aux }),
	ecode.Int("msgid", func(e *kprof.Event) int64 { return int64(e.MsgID) }),
	ecode.Int("seq", func(e *kprof.Event) int64 { return int64(e.Seq) }),
	ecode.Bool("last", func(e *kprof.Event) bool { return e.Last }),
	ecode.Str("proc", func(e *kprof.Event) string { return e.Proc }),
	ecode.Int("src_node", func(e *kprof.Event) int64 { return int64(e.Flow.Src.Node) }),
	ecode.Int("src_port", func(e *kprof.Event) int64 { return int64(e.Flow.Src.Port) }),
	ecode.Int("dst_node", func(e *kprof.Event) int64 { return int64(e.Flow.Dst.Node) }),
	ecode.Int("dst_port", func(e *kprof.Event) int64 { return int64(e.Flow.Dst.Port) }),
)

// CPAVerifyEnv is the canonical environment for custom analyzers: the
// event fields plus the emit builtin, delivering to emit (nil: nowhere,
// which is all verifying needs). Frontends (sysprofctl) and the LPA host
// both verify against this same environment, so a program accepted
// client-side cannot be rejected node-side for schema drift.
func CPAVerifyEnv(name string, emit EmitFunc) ecode.VerifyEnv {
	return ecode.VerifyEnv{
		Name:    name,
		Binding: eventFields,
		Builtins: map[string]ecode.Builtin{
			"emit": {Params: []ecode.ParamKind{ecode.PString, ecode.PAny}, Result: ecode.RInt, Cost: 4,
				Fn: func(args []ecode.Arg) ecode.Arg {
					if emit != nil {
						emit(args[0].Str, args[1])
					}
					return ecode.Arg{T: ecode.TInt}
				}},
		},
	}
}

// EmitFunc receives values published by a CPA's emit(channel, value),
// unboxed, on the event path. A record payload's Rec is the
// *kprof.Event being handled: keep what is needed of it, not the pointer.
type EmitFunc func(channel string, value ecode.Arg)

// NewCPA verifies src, compiles it to closures, and installs it on the
// hub for the given event mask. Verification happens here — node-side —
// even when a frontend already verified: the LPA never trusts the
// install path. Rejections carry the verifier's evidence chains.
func NewCPA(hub *kprof.Hub, name, src string, mask kprof.Mask, emit EmitFunc) (*CPA, error) {
	prog, err := ecode.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("cpa %q: %w", name, err)
	}
	compiled, verdict, err := prog.CompileVerified(CPAVerifyEnv(name, emit))
	if err != nil {
		if verdict != nil && !verdict.OK {
			return nil, fmt.Errorf("cpa %q rejected by verifier:\n%s", name, verdict.Render())
		}
		return nil, fmt.Errorf("cpa %q: %w", name, err)
	}
	c := &CPA{name: name, cost: compiled.Cost(), inst: compiled.NewInstance()}
	c.sub = hub.Subscribe(mask, c.handle)
	return c, nil
}

// VerifyCPA runs the verifier alone (no install): the check frontends
// use before shipping source across the control channel.
func VerifyCPA(name, src string) (*ecode.Verdict, error) {
	prog, err := ecode.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("cpa %q: %w", name, err)
	}
	return prog.Verify(CPAVerifyEnv(name, nil)), nil
}

// Name returns the analyzer's name.
func (c *CPA) Name() string { return c.name }

// Cost returns the verifier's worst-case per-event step estimate.
func (c *CPA) Cost() int { return c.cost }

// Subscription exposes the kprof subscription for controller retuning.
func (c *CPA) Subscription() *kprof.Subscription { return c.sub }

// Close uninstalls the analyzer.
func (c *CPA) Close() { c.sub.Close() }

// Stats reports run and error counts, plus the most recent error.
func (c *CPA) Stats() (runs, errs uint64, lastErr error) {
	return c.runs, c.errs, c.lastErr
}

// Static exposes a persistent program variable (for queries via /proc).
func (c *CPA) Static(name string) (ecode.Value, bool) { return c.inst.Static(name) }

func (c *CPA) handle(ev *kprof.Event) {
	c.runs++
	if err := c.inst.Exec(ev); err != nil {
		c.errs++
		c.lastErr = err
	}
}
