//go:build !race

package ecode_test

import (
	"testing"

	"sysprof/internal/ecode"
)

// TestCompiledAllocFree: the steady-state hot path allocates nothing —
// typed field reads off the real event, a builtin called with literal
// arguments (boxed once, at compile time) and a computed return value
// that Exec leaves unboxed. Run boxes that value for a caller who asks
// (the counter is past the small integers Go boxes for free, so that is
// one allocation), and returns a literal already boxed. The race
// detector instruments allocations, so the guard is built out under
// -race; CI runs it in a separate step without.
func TestCompiledAllocFree(t *testing.T) {
	compile := func(src string) *ecode.CompiledInstance {
		c, _, err := ecode.MustCompile(src).CompileVerified(testVerifyEnv("alloc"))
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
emit("latency.alerts", 4096);
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
	// 201 Exec runs, then 201 Run runs, each counting from 1000.
	if v, err := counter.Run(ev); err != nil || v != int64(1403) {
		t.Errorf("Run = %v, %v; want 1403", v, err)
	}
	if v, err := literal.Run(ev); err != nil || v != int64(4096) {
		t.Errorf("Run = %v, %v; want 4096", v, err)
	}
}
