//go:build !race

package ecode_test

import (
	"strings"
	"testing"

	"sysprof/internal/core"
	"sysprof/internal/ecode"
)

// TestCompiledAllocFree: the steady-state hot path allocates nothing —
// typed field reads off the real event, an emit whose payload is
// computed, builtins whose results are computed, and a computed return
// value that Exec leaves unboxed. Every computed value is past the
// small integers Go boxes for free, so boxing one anywhere would show.
// Run boxes the returned value for a caller who asks (one allocation),
// and returns a literal already boxed. The race detector instruments
// allocations, so the guard is built out under -race; CI runs it in a
// separate step without.
func TestCompiledAllocFree(t *testing.T) {
	emits := 0
	env := core.CPAVerifyEnv("alloc", func(string, ecode.Arg) { emits++ })
	compile := func(src string) *ecode.CompiledInstance {
		t.Helper()
		c, _, err := ecode.MustCompile(src).CompileVerified(env)
		if err != nil {
			t.Fatal(err)
		}
		return c.NewInstance()
	}
	counter := compile(`
static int n = 1000;
if (ev.type == "net_rx" && ev.bytes > 512) {
	n++;
}
emit("latency.alerts", ev.bytes * n);
return n;
`)
	literal := compile(`
if (ev.bytes > 512) { return 4096; }
return "small";
`)
	ev := testEvent()
	for _, tc := range []struct {
		name   string
		allocs float64
		run    func() error
	}{
		{"exec", 0, func() error { return counter.Exec(ev) }},
		{"run-computed", 1, func() error { _, err := counter.Run(ev); return err }},
		{"run-literal", 0, func() error { _, err := literal.Run(ev); return err }},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}); allocs != tc.allocs {
			t.Errorf("%s: %.2f allocs per run, want %.0f", tc.name, allocs, tc.allocs)
		}
	}
	// 201 Exec runs, then 201 Run runs, each counting from 1000 and
	// emitting once.
	if v, err := counter.Run(ev); err != nil || v != int64(1403) {
		t.Errorf("Run = %v, %v; want 1403", v, err)
	}
	if v, err := literal.Run(ev); err != nil || v != int64(4096) {
		t.Errorf("Run = %v, %v; want 4096", v, err)
	}
	if emits != 403 {
		t.Errorf("sink saw %d emits, want 403", emits)
	}

	// Builtin results, each stored in a static and read back.
	for _, tc := range []struct {
		name, typ, expr string
		want            ecode.Value
	}{
		{"len", "int", `len("` + strings.Repeat("x", 300) + `")`, int64(300)},
		{"abs-int", "int", `abs(-ev.bytes * 10)`, int64(15000)},
		{"abs-float", "float", `abs(0.5 - ev.bytes)`, 1499.5},
		{"min-int", "int", `min(ev.bytes * 10, 90000, ev.bytes * 20)`, int64(15000)},
		{"min-float", "float", `min(ev.bytes * 1.5, 9000.5)`, 2250.0},
		{"max-int", "int", `max(ev.aux, ev.bytes, 300)`, int64(1500)},
		{"max-float", "float", `max(ev.aux / 2.0, ev.bytes * 0.5)`, 750.0},
		{"contains", "bool", `contains(ev.proc, "gin")`, true},
	} {
		inst := compile("static " + tc.typ + " r; r = " + tc.expr + ";")
		if allocs := testing.AllocsPerRun(200, func() {
			if err := inst.Exec(ev); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %.2f allocs per run, want 0", tc.name, allocs)
		}
		if got, _ := inst.Static("r"); got != tc.want {
			t.Errorf("%s: r = %#v, want %#v", tc.name, got, tc.want)
		}
	}
}
