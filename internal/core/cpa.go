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
// therefore never runs an unbounded, blocking, or allocating analyzer —
// and never pays for a step counter, because termination is proven.
type CPA struct {
	name string
	sub  *kprof.Subscription
	inst *ecode.CompiledInstance
	cost int

	runs    uint64
	errs    uint64
	lastErr error
}

// eventRecord adapts a kprof event to the ecode.Record interface. Field
// names are the stable CPA-visible schema.
type eventRecord struct {
	ev *kprof.Event
}

var _ ecode.Record = eventRecord{}

// Field implements ecode.Record.
func (r eventRecord) Field(name string) (ecode.Value, bool) {
	ev := r.ev
	switch name {
	case "type":
		return ev.Type.String(), true
	case "time":
		return int64(ev.Time), true
	case "node":
		return int64(ev.Node), true
	case "cpu":
		return int64(ev.CPU), true
	case "pid":
		return int64(ev.PID), true
	case "pid2":
		return int64(ev.PID2), true
	case "bytes":
		return int64(ev.Bytes), true
	case "aux":
		return ev.Aux, true
	case "msgid":
		return int64(ev.MsgID), true
	case "seq":
		return int64(ev.Seq), true
	case "last":
		return ev.Last, true
	case "proc":
		return ev.Proc, true
	case "src_node":
		return int64(ev.Flow.Src.Node), true
	case "src_port":
		return int64(ev.Flow.Src.Port), true
	case "dst_node":
		return int64(ev.Flow.Dst.Node), true
	case "dst_port":
		return int64(ev.Flow.Dst.Port), true
	}
	return nil, false
}

// EventSchema is the CPA-visible kernel event schema: the typed fields
// of the "ev" record. TestEventSchemaMatchesRecord holds it in lockstep
// with eventRecord.Field.
func EventSchema() ecode.RecordSchema {
	return ecode.RecordSchema{
		"type":  ecode.TString,
		"time":  ecode.TInt,
		"node":  ecode.TInt,
		"cpu":   ecode.TInt,
		"pid":   ecode.TInt,
		"pid2":  ecode.TInt,
		"bytes": ecode.TInt,
		"aux":   ecode.TInt,
		"msgid": ecode.TInt,
		"seq":   ecode.TInt,
		"last":  ecode.TBool,
		"proc":  ecode.TString,

		"src_node": ecode.TInt,
		"src_port": ecode.TInt,
		"dst_node": ecode.TInt,
		"dst_port": ecode.TInt,
	}
}

// CPAVerifyEnv is the canonical verification environment for custom
// analyzers: the event schema plus the emit builtin. Frontends
// (sysprofctl) and the LPA host both verify against this same
// environment, so a program accepted client-side cannot be rejected
// node-side for schema drift.
func CPAVerifyEnv(name string) ecode.VerifyEnv {
	return ecode.VerifyEnv{
		Name:    name,
		Records: map[string]ecode.RecordSchema{"ev": EventSchema()},
		Builtins: map[string]ecode.BuiltinSig{
			"emit": {Params: []ecode.ParamKind{ecode.PString, ecode.PAny}, Result: ecode.RInt, Cost: 4},
		},
	}
}

// EmitFunc receives values published by a CPA's emit(channel, value).
type EmitFunc func(channel string, value ecode.Value)

// NewCPA verifies src, compiles it to closures, and installs it on the
// hub for the given event mask. Verification happens here — node-side —
// even when a frontend already verified: the LPA never trusts the
// install path. Rejections carry the verifier's evidence chains.
func NewCPA(hub *kprof.Hub, name, src string, mask kprof.Mask, emit EmitFunc) (*CPA, error) {
	prog, err := ecode.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("cpa %q: %w", name, err)
	}
	compiled, verdict, err := prog.CompileVerified(CPAVerifyEnv(name))
	if err != nil {
		if verdict != nil && !verdict.OK {
			return nil, fmt.Errorf("cpa %q rejected by verifier:\n%s", name, verdict.Render())
		}
		return nil, fmt.Errorf("cpa %q: %w", name, err)
	}
	c := &CPA{name: name, cost: compiled.Cost()}
	builtins := map[string]ecode.Builtin{
		"emit": func(args []ecode.Value) (ecode.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("emit wants (channel, value)")
			}
			ch, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("emit channel must be a string")
			}
			if emit != nil {
				emit(ch, args[1])
			}
			return int64(0), nil
		},
	}
	c.inst, err = compiled.NewInstance(builtins)
	if err != nil {
		return nil, fmt.Errorf("cpa %q: %w", name, err)
	}
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
	return prog.Verify(CPAVerifyEnv(name)), nil
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
	if _, err := c.inst.Run(map[string]ecode.Value{"ev": eventRecord{ev: ev}}); err != nil {
		c.errs++
		c.lastErr = err
	}
}
