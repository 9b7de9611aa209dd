package ecode_test

// The engine's tests bind what ships: programs are verified against
// core.CPAVerifyEnv — the environment sysprofctl and the LPA host use —
// and run on a *kprof.Event, so there is no second event schema here to
// keep equal to the first.

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/ecode"
	"sysprof/internal/kprof"
	"sysprof/internal/simnet"
)

// testVerifyEnv is the CPA environment with emit delivering nowhere.
func testVerifyEnv(name string) ecode.VerifyEnv { return core.CPAVerifyEnv(name, nil) }

// emitted is one emit call as the builtin received it, payload boxed.
type emitted struct {
	ch string
	v  ecode.Value
}

// recording returns env with its emit builtin, if it has one, also
// appending every call's channel and payload to *log.
func recording(env ecode.VerifyEnv, log *[]emitted) ecode.VerifyEnv {
	b, ok := env.Builtins["emit"]
	if !ok {
		return env
	}
	fn := b.Fn
	b.Fn = func(args []ecode.Arg) ecode.Arg {
		*log = append(*log, emitted{args[0].Str, args[1].Value()})
		return fn(args)
	}
	env.Builtins = maps.Clone(env.Builtins)
	env.Builtins["emit"] = b
	return env
}

// diffRun executes src through both the interpreter and the compiled
// closures in the same environment on the same host record and requires
// identical outcomes: the same emit calls in the same order, and either
// both error, or both succeed with equal values. The verdict's cost
// must bound the interpreter's step count; that is checked before the
// compiled run, which has no step limit.
func diffRun(t *testing.T, src string, env ecode.VerifyEnv, host any) (ecode.Value, error) {
	t.Helper()
	var iEmits, cEmits []emitted
	prog := ecode.MustCompile(src)
	inst := prog.NewInstance(ecode.WithEnv(recording(env, &iEmits)))
	iv, ierr := inst.Run(host)

	c, verdict, err := prog.CompileVerified(recording(env, &cEmits))
	if err != nil {
		t.Fatalf("CompileVerified rejected:\n%s\n%v", verdict.Render(), err)
	}
	if inst.Steps() > verdict.Cost {
		t.Fatalf("interpreter ran %d steps, above the verdict's cost %d", inst.Steps(), verdict.Cost)
	}
	cv, cerr := c.NewInstance().Run(host)

	if !reflect.DeepEqual(iEmits, cEmits) {
		t.Fatalf("emit divergence: interp %#v, compiled %#v", iEmits, cEmits)
	}
	if (ierr != nil) != (cerr != nil) {
		t.Fatalf("error divergence: interp err=%v, compiled err=%v", ierr, cerr)
	}
	if ierr != nil {
		// Arithmetic errors must match exactly; both are RuntimeErrors.
		if ierr.Error() != cerr.Error() {
			t.Fatalf("error text divergence: interp %q, compiled %q", ierr, cerr)
		}
		return nil, ierr
	}
	if !reflect.DeepEqual(iv, cv) {
		t.Fatalf("value divergence: interp %#v, compiled %#v", iv, cv)
	}
	return cv, nil
}

func testEvent() *kprof.Event {
	return &kprof.Event{
		Type: kprof.EvNetRx, Time: 1000 * time.Nanosecond, Node: 1, PID: 42, Bytes: 1500, Aux: 7,
		MsgID: 9, Seq: 3, Last: true, Proc: "nginx",
		Flow: simnet.FlowKey{Src: simnet.Addr{Node: 1, Port: 80}, Dst: simnet.Addr{Node: 2, Port: 9090}},
	}
}

// TestCompiledMatchesInterpreter is the semantics corpus: every program
// must produce identical results from the tree-walker and the compiled
// closures.
func TestCompiledMatchesInterpreter(t *testing.T) {
	env, ev := testVerifyEnv("diff"), testEvent()
	cases := []struct {
		name string
		src  string
	}{
		{"arith-int", `return (2 + 3) * 4 - 10 / 2;`},
		{"arith-float", `return 1.5 * 4.0 + 0.25;`},
		{"arith-mixed-promote", `return 3 + 0.5;`},
		{"arith-mod", `return 17 % 5;`},
		{"unary-neg", `int a = 5; return -a + -2;`},
		{"unary-not", `bool b = false; if (!b) { return 1; } return 0;`},
		{"precedence", `return 2 + 3 * 4;`},
		{"compare-chain", `if (1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3 && 1 != 2 && 2 == 2) { return 1; } return 0;`},
		{"compare-mixed", `if (1 < 1.5) { return 1; } return 0;`},
		{"string-concat", `string s = "a" + "b"; return s + "c";`},
		{"string-compare", `if ("abc" < "abd" && "x" == "x") { return 1; } return 0;`},
		{"short-circuit-and", `int n = 0; if (false && 1 / n == 0) { return 1; } return 0;`},
		{"short-circuit-or", `int n = 0; if (true || 1 / n == 0) { return 1; } return 0;`},
		{"if-else-chain", `int x = 7; if (x > 10) { return 1; } else if (x > 5) { return 2; } else { return 3; }`},
		{"for-loop-sum", `int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s;`},
		{"while-loop", `int i = 0; int s = 0; while (i < 8) { s += 2; i++; } return s;`},
		{"loop-inclusive-descending", `int n = 0; for (int i = 10; i >= -10; i -= 3) { n++; } return n;`},
		{"nested-loops", `int s = 0; for (int i = 0; i < 4; i++) { for (int j = 0; j < 3; j++) { s += i * j; } } return s;`},
		{"break", `int s = 0; for (int i = 0; i < 100; i++) { if (i == 5) { break; } s += 1; } return s;`},
		{"continue", `int s = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } s += i; } return s;`},
		{"return-in-loop", `for (int i = 0; i < 10; i++) { if (i == 3) { return i * 100; } } return -1;`},
		{"shadowing", `int x = 1; if (true) { int x = 2; x += 10; } return x;`},
		{"loop-body-decl", `int s = 0; for (int i = 0; i < 5; i++) { int d = i * 2; s += d; } return s;`},
		{"compound-ops", `int n = 10; n += 5; n -= 3; n *= 2; n /= 4; return n;`},
		{"compound-float", `float f = 10.0; f /= 4.0; f *= 2.0; return f;`},
		{"string-append", `string s = "x"; s += "y"; return len(s);`},
		{"decl-coerce-int", `int n = 3.9; return n;`},
		{"decl-coerce-float", `float f = 3; return f;`},
		{"zero-init", `int a; float b; bool c; string d; if (!c && a == 0 && b == 0.0 && d == "") { return 1; } return 0;`},
		{"field-int", `return ev.bytes + ev.aux;`},
		{"field-string", `if (ev.type == "net_rx" && contains(ev.proc, "ngi")) { return 1; } return 0;`},
		{"field-bool", `if (ev.last) { return ev.seq; } return -1;`},
		{"builtin-len", `return len("hello") + len(ev.proc);`},
		{"builtin-len-computed", `string s = ev.proc + "-" + ev.type; return len(s) * 100;`},
		{"builtin-abs", `return abs(-5) + abs(5);`},
		{"builtin-abs-int", `return abs(ev.bytes * -3) + abs(-ev.aux);`},
		{"builtin-abs-float", `return abs(-ev.bytes / 2.0) + abs(0.25 - ev.aux);`},
		{"builtin-minmax", `return min(3, 1, 2) + max(3, 1, 2);`},
		{"builtin-minmax-float", `if (min(1.5, 2.5) == 1.5) { return 1; } return 0;`},
		{"builtin-minmax-int", `return min(ev.bytes, 9000, ev.aux * 100) * 1000 + max(ev.bytes) + max(ev.aux, ev.bytes - 1, 300);`},
		{"builtin-minmax-float-computed", `return min(ev.bytes * 1.5, 4000.0) + max(-2.5, ev.aux / 4.0, 0.0 - ev.bytes);`},
		{"builtin-minmax-wide-int", `return min(9007199254740993, 9007199254740992) - 9007199254740990;`},
		{"builtin-nested", `return max(abs(ev.aux - ev.bytes), len(ev.proc), min(abs(-700), 800));`},
		{"builtin-contains", `int n = 0; if (contains(ev.proc, "gin")) { n += 1; } if (contains(ev.proc + ev.type, "xnet")) { n += 10; } if (contains("", ev.proc)) { n += 100; } return n;`},
		{"emit-every-kind", emitEveryKind},
		{"emit-in-loop", `for (int i = 0; i < 4; i++) { emit("loop", ev.bytes * i); } return 0;`},
		{"emit-then-fault", `int z = 0; emit("before", ev.aux + 1000); return ev.bytes / z;`},
		{"fall-off-end", `int n = 1; n += 1;`},
		{"bare-return", `if (1 < 2) { return; } return 1;`},
		{"div-by-zero-int", `int z = 0; return 1 / z;`},
		{"mod-by-zero", `int z = 0; return 1 % z;`},
		{"div-by-zero-float", `float z = 0.0; return 1.0 / z;`},
		{"compound-div-zero", `int n = 4; int z = 0; n /= z; return n;`},
		{"realistic-cpa", `
static int n = 0;
static float sum = 0.0;
if (ev.type == "net_rx" && ev.bytes > 512) {
	n++;
	sum += ev.bytes;
}
if (n > 0) {
	return sum / n;
}
return 0.0;
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffRun(t, tc.src, env, ev)
		})
	}

	for _, tc := range scopingCases {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := diffRun(t, tc.src, env, ev); err != nil || got != tc.want {
				t.Errorf("got %#v, %v; want %#v", got, err, tc.want)
			}
		})
	}
}

// emitEveryKind hands emit every payload kind the verifier admits:
// computed and literal scalars of each type, a builtin's result and the
// record itself.
const emitEveryKind = `
emit("int", ev.bytes * 1000);
emit("float", ev.bytes / 4.0);
emit("bool", ev.last);
emit("string", ev.proc);
emit("record", ev);
emit("literal", 4096);
emit("literal-float", 2.5);
emit("literal-bool", false);
emit("literal-string", "x");
emit("call", max(ev.bytes, 300));
emit(ev.proc + ".computed-channel", len(ev.type));
return emit("nested", emit("inner", 1)) + 7;
`

// TestCompiledEmitPayloads: what emitEveryKind emits reaches the CPA
// host's EmitFunc unboxed, typed as the verifier typed it, the record as
// the very event Run was handed.
func TestCompiledEmitPayloads(t *testing.T) {
	var got []emitted
	var types []ecode.Type
	env := core.CPAVerifyEnv("payloads", func(ch string, v ecode.Arg) {
		got = append(got, emitted{ch, v.Value()})
		types = append(types, v.T)
	})
	c, _, err := ecode.MustCompile(emitEveryKind).CompileVerified(env)
	if err != nil {
		t.Fatal(err)
	}
	ev := testEvent()
	if v, err := c.NewInstance().Run(ev); err != nil || v != int64(7) {
		t.Fatalf("Run = %v, %v; want 7", v, err)
	}
	want := []emitted{
		{"int", int64(1500000)}, {"float", 375.0}, {"bool", true}, {"string", "nginx"}, {"record", ev},
		{"literal", int64(4096)}, {"literal-float", 2.5}, {"literal-bool", false}, {"literal-string", "x"},
		{"call", int64(1500)}, {"nginx.computed-channel", int64(len("net_rx"))},
		{"inner", int64(1)}, {"nested", int64(0)},
	}
	wantTypes := []ecode.Type{ecode.TInt, ecode.TFloat, ecode.TBool, ecode.TString, ecode.TRecord,
		ecode.TInt, ecode.TFloat, ecode.TBool, ecode.TString, ecode.TInt, ecode.TInt, ecode.TInt, ecode.TInt}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(types, wantTypes) {
		t.Errorf("emitted %#v\ntypes %v\nwant %#v\ntypes %v", got, types, want, wantTypes)
	}
}

// scopingCases extend TestCompiledMatchesInterpreter's corpus (and seed
// FuzzVerify): what a name means is resolved once, by the verifier, and
// both engines must run the program as it was typed — so these also
// pin the value. A declaration's initialiser resolves before the
// declared name is bound, and a loop body is a scope of its own,
// fresh on every iteration (the first six diverged between the
// engines, or from the verifier's typing, before that held). The last
// three hold the cost pass to declarations: when loop bounds were keyed
// by name, the first was costed at 34 steps and ran 3 010, and the
// other two were rejected.
var scopingCases = []struct {
	name string
	src  string
	want ecode.Value
}{
	{"init-reads-outer", `int x = 1; if (true) { int x = x + 1; return x; } return -1;`, int64(2)},
	{"init-reads-outer-retyped", `int x = 1; if (true) { float x = x + 0.5; return x; } return -1.0;`, 1.5},
	{"init-reads-static", `static int n = 7; if (true) { int n = n + 1; return n; } return -1;`, int64(8)},
	{"init-reads-outer-string", `string x = "abc"; if (true) { int x = len(x); return x; } return -1;`, int64(3)},
	{"loop-init-reads-outer", `int x = 5; int s = 0; for (int i = 0; i < 3; i++) { int x = x + i; s = x; } return s;`, int64(7)},
	{"loop-init-reads-outer-string", `string x = "abc"; int s = 0; for (int i = 0; i < 2; i++) { int x = len(x); s += x; } return s;`, int64(6)},

	{"branch-retype-then", `if (ev.last) { int v = 3; return v; } else { string v = "ab"; return len(v); }`, int64(3)},
	{"branch-retype-else", `if (!ev.last) { int v = 3; return v; } else { string v = "ab"; return len(v); }`, int64(2)},
	{"for-init-shadows-outer", `int i = 42; int s = 0; for (int i = 0; i < 3; i++) { s += 100; } return s + i;`, int64(342)},
	{"local-shadows-static", `static int n = 7; int r = 0; if (true) { int n = 200; r = n; } return r + n;`, int64(207)},
	{"static-in-loop-body", `int s = 0; for (int i = 0; i < 3; i++) { static int k = 10; k++; s = k; } return s;`, int64(13)},
	{"sibling-loops", `int s = 0; for (int i = 0; i < 3; i++) { int d = i; s += d; } for (int j = 0; j < 3; j++) { int d = 2; s += d; } return s;`, int64(9)},

	{"loop-shadow-keeps-outer-bound", `int x = 1000; for (int i = 0; i < 1; i++) { int x = 1; } int s = 0; for (int j = 0; j < x; j++) { s += 1; } return s;`, int64(1000)},
	{"branch-shadow-keeps-outer-bound", `int x = 1000; if (true) { int x = 1; } int s = 0; for (int j = 0; j < x; j++) { s += 1; } return s;`, int64(1000)},
	{"body-redeclares-counter", `for (int i = 0; i < 10; i++) { int i = 0; } return 0;`, int64(0)},
}

// TestCompiledStaticsPersist mirrors TestStaticPersistsAcrossRuns: the
// compiled instance must accumulate static state identically, and
// Static() must match the interpreter's visibility rules.
func TestCompiledStaticsPersist(t *testing.T) {
	src := `
static int count = 0;
static float total = 0.0;
count++;
total += ev.bytes;
return count;
`
	prog := ecode.MustCompile(src)
	env := testVerifyEnv("statics")
	c, _, err := prog.CompileVerified(env)
	if err != nil {
		t.Fatal(err)
	}
	ci := c.NewInstance()
	inst := prog.NewInstance(ecode.WithEnv(env))
	ev := testEvent()

	if _, ok := ci.Static("count"); ok {
		t.Error("Static visible before first run")
	}
	for run := 1; run <= 3; run++ {
		iv, err := inst.Run(ev)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := ci.Run(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(iv, cv) {
			t.Fatalf("run %d: interp %v, compiled %v", run, iv, cv)
		}
		is, _ := inst.Static("total")
		cs, ok := ci.Static("total")
		if !ok || !reflect.DeepEqual(is, cs) {
			t.Fatalf("run %d: static total interp %v, compiled %v (ok=%v)", run, is, cs, ok)
		}
	}
	if v, _ := ci.Static("count"); v != int64(3) {
		t.Errorf("count = %v after 3 runs, want 3", v)
	}
	if _, ok := ci.Static("missing"); ok {
		t.Error("Static returned a value for an undeclared name")
	}

	// A static declared in a branch exists from the event that first
	// takes the branch, not before.
	c, _, err = ecode.MustCompile(`
static int runs = 0;
runs++;
if (runs == 2) { static int late = 40; late += runs; }
return runs;
`).CompileVerified(testVerifyEnv("late"))
	if err != nil {
		t.Fatal(err)
	}
	ci = c.NewInstance()
	for run, want := range []ecode.Value{nil, int64(42), int64(42)} {
		if _, err := ci.Run(ev); err != nil {
			t.Fatal(err)
		}
		if got, ok := ci.Static("late"); got != want || ok != (want != nil) {
			t.Errorf("after run %d: Static(late) = %v, %v; want %v", run+1, got, ok, want)
		}
	}
}

// keyed is a host record whose one field the environments of
// TestSharedProgramConcurrentVerify type differently.
type keyed struct {
	n int64
	s string
}

// TestSharedProgramConcurrentVerify: a *Program is immutable. One parsed
// program is verified and compiled from several goroutines at once
// against environments that type the same nodes differently — ev.key is
// an int for one and a string for the next, and the third binds only
// rec, so ev is undefined — and every result must equal the sequential
// one. Under -race this is what rules out annotating the AST in place.
func TestSharedProgramConcurrentVerify(t *testing.T) {
	prog := ecode.MustCompile(`static int n = 0; n++; if (ev.key == ev.key && n > 0) { return ev.key; } return ev.key;`)
	strKey := ecode.Str("key", func(k *keyed) string { return k.s })
	envs := []ecode.VerifyEnv{
		{Name: "cpa", Binding: ecode.Bind("ev", ecode.Int("key", func(k *keyed) int64 { return k.n }))},
		{Name: "retyped", Binding: ecode.Bind("ev", strKey)},
		{Name: "filter", Binding: ecode.Bind("rec", strKey)},
	}
	host := &keyed{n: 7, s: "seven"}
	run := func(i int) string {
		c, v, err := prog.CompileVerified(envs[i])
		out := fmt.Sprintf("ok=%v cost=%d\n%s\n", v.OK, v.Cost, v.Render())
		if err != nil {
			return out + err.Error()
		}
		val, err := c.NewInstance().Run(host)
		return out + fmt.Sprintf("%#v %v", val, err)
	}
	want := make([]string, len(envs))
	for i := range envs {
		want[i] = run(i)
	}
	if !strings.Contains(want[0], "7 <nil>") || !strings.Contains(want[1], `"seven" <nil>`) || !strings.Contains(want[2], `undefined variable "ev"`) {
		t.Fatalf("sequential results are not what the test assumes:\n%s", strings.Join(want, "\n---\n"))
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				if got := run(i); got != want[i] {
					t.Errorf("env %s, concurrent result differs from sequential:\n got: %s\nwant: %s", envs[i].Name, got, want[i])
					return
				}
			}
		}(g % len(envs))
	}
	wg.Wait()
}

// TestCompiledInstancesIsolated: two instances of one Compiled must not
// share static state or argument buffers.
func TestCompiledInstancesIsolated(t *testing.T) {
	c, _, err := ecode.MustCompile(`static int n = 0; n += len(ev.proc); return n;`).
		CompileVerified(testVerifyEnv("iso"))
	if err != nil {
		t.Fatal(err)
	}
	a, b, ev := c.NewInstance(), c.NewInstance(), testEvent()
	if _, err := a.Run(ev); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(ev); err != nil {
		t.Fatal(err)
	}
	v, err := b.Run(ev)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(5) { // len("nginx"), not accumulated from a
		t.Errorf("instance b saw %v, want 5 — static state leaked across instances", v)
	}
}

// TestCompiledCustomBuiltin: a host builtin is one environment entry —
// signature and implementation — and receives evaluated arguments
// unboxed, typed as the verifier typed them.
func TestCompiledCustomBuiltin(t *testing.T) {
	var got []ecode.Arg
	env := testVerifyEnv("diff")
	env.Builtins = map[string]ecode.Builtin{
		"note": {Params: []ecode.ParamKind{ecode.PAny, ecode.PNum}, Result: ecode.RInt, Cost: 4,
			Fn: func(args []ecode.Arg) ecode.Arg {
				got = append(got, args...)
				return ecode.Arg{T: ecode.TInt, Int: int64(len(args))}
			}},
	}
	v, err := diffRun(t, `note(ev.proc, ev.bytes * 2); return note(ev.last, 0.5);`, env, testEvent())
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(2) {
		t.Errorf("note returned %v, want 2", v)
	}
	// Both engines ran, so the builtin saw each call twice.
	one := []ecode.Arg{
		{T: ecode.TString, Str: "nginx"}, {T: ecode.TInt, Int: 3000},
		{T: ecode.TBool, Bool: true}, {T: ecode.TFloat, Float: 0.5},
	}
	if want := append(one, one...); !reflect.DeepEqual(got, want) {
		t.Errorf("note args %#v, want %#v", got, want)
	}
}

// TestCompiledMissingBuiltin: a builtin declared without an
// implementation fails the install, not a run on the hot path.
func TestCompiledMissingBuiltin(t *testing.T) {
	env := ecode.VerifyEnv{Name: "mb", Builtins: map[string]ecode.Builtin{
		"emit": {Params: []ecode.ParamKind{ecode.PString, ecode.PAny}, Result: ecode.RInt},
	}}
	prog := ecode.MustCompile(`emit("x", 1); return 0;`)
	if v := prog.Verify(env); !v.OK {
		t.Fatalf("signature alone should verify:\n%s", v.Render())
	}
	if c, _, err := prog.CompileVerified(env); c != nil || err == nil || !strings.Contains(err.Error(), "emit") {
		t.Errorf("CompileVerified = (%v, %v), want no artifact and an error naming emit", c, err)
	}
}

// TestCompiledMissingBinding: Run takes the host record the
// environment's field table was declared over and nothing else — an
// absent, nil or foreign value is an error up front, never a panic in a
// getter.
func TestCompiledMissingBinding(t *testing.T) {
	c, _, err := ecode.MustCompile(`return ev.bytes;`).CompileVerified(testVerifyEnv("mbind"))
	if err != nil {
		t.Fatal(err)
	}
	ci := c.NewInstance()
	for _, host := range []any{nil, int64(3), (*kprof.Event)(nil), kprof.Event{}, &core.Record{}} {
		_, err := ci.Run(host)
		if err == nil || !strings.Contains(err.Error(), `"ev"`) || !strings.Contains(err.Error(), "*kprof.Event") {
			t.Errorf("Run(%T): err = %v, want one naming the binding and its host type", host, err)
		}
	}
	if v, err := ci.Run(testEvent()); err != nil || v != int64(1500) {
		t.Errorf("Run(event) = %v, %v", v, err)
	}
}

// TestCompileVerifiedRejects: a hostile program never reaches the
// compiler; the error carries the verifier's evidence chain.
func TestCompileVerifiedRejects(t *testing.T) {
	c, v, err := ecode.MustCompile(`while (true) { }`).CompileVerified(testVerifyEnv("hostile.ec"))
	if c != nil {
		t.Fatal("hostile program compiled")
	}
	if v == nil || v.OK {
		t.Fatal("verdict missing or OK")
	}
	if err == nil || !strings.Contains(err.Error(), "not provably bounded") {
		t.Errorf("err = %v, want termination diagnostic", err)
	}
}

// TestCompiledCost: the verifier's estimate rides along on the
// artifact for controller status reporting.
func TestCompiledCost(t *testing.T) {
	c, v, err := ecode.MustCompile(`int n = 0; for (int i = 0; i < 50; i++) { n += i; } return n;`).
		CompileVerified(testVerifyEnv("cost"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost() != v.Cost || c.Cost() < 50 {
		t.Errorf("Cost() = %d, verdict %d", c.Cost(), v.Cost)
	}
	if c.Name() != "cost" {
		t.Errorf("Name() = %q", c.Name())
	}
}

// TestCompiledNoStepLimit: the proof is the budget — a verified 10k
// iteration loop runs to completion even though the interpreter's
// default guard would allow it too; what matters is the compiled path
// has no counter to trip (exercised with a limit far below the work).
func TestCompiledNoStepLimit(t *testing.T) {
	src := `int s = 0; for (int i = 0; i < 10000; i++) { s += 1; } return s;`
	prog := ecode.MustCompile(src)
	if _, err := prog.NewInstance(ecode.WithStepLimit(100)).Run(nil); err == nil {
		t.Fatal("interpreter step limit did not trip — test premise broken")
	}
	env := testVerifyEnv("nolimit")
	env.MaxCost = 100_000
	c, _, err := prog.CompileVerified(env)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.NewInstance().Run(testEvent())
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(10000) {
		t.Errorf("got %v, want 10000", v)
	}
}

// TestCompiledRuntimeErrorLine: arithmetic faults keep their source
// line through compilation.
func TestCompiledRuntimeErrorLine(t *testing.T) {
	c, _, err := ecode.MustCompile("int z = 0;\nreturn 1 / z;").CompileVerified(testVerifyEnv("line"))
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := c.NewInstance().Run(testEvent())
	var re *ecode.RuntimeError
	if !errors.As(rerr, &re) || re.Line != 2 {
		t.Fatalf("err = %v, want RuntimeError at line 2", rerr)
	}
}
