package ecode_test

import (
	"testing"

	"sysprof/internal/ecode"
)

// cpaBenchSource is a realistic CPA program for per-event cost
// measurement (it runs on the kernel fast path).
const cpaBenchSource = `
static int n = 0;
static float sum = 0.0;
if (ev.type == "net_rx" && ev.bytes > 512) {
	n++;
	sum += ev.bytes;
}
return n;
`

// BenchmarkCPAPerEvent compares the two CPA execution engines on the
// same program and event — a *kprof.Event read through the CPA field
// table, the record a daemon binds: the tree-walking interpreter (with
// its runtime step limit) versus the verified-and-compiled closures (no
// step counting — termination is proven at install time; the one
// alloc/op boxes the returned count).
func BenchmarkCPAPerEvent(b *testing.B) {
	env, ev := testVerifyEnv("bench"), testEvent()
	b.Run("interp", func(b *testing.B) {
		inst := ecode.MustCompile(cpaBenchSource).NewInstance(ecode.WithEnv(env))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := inst.Run(ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		c, verdict, err := ecode.MustCompile(cpaBenchSource).CompileVerified(env)
		if err != nil {
			b.Fatalf("%v\n%s", err, verdict.Render())
		}
		ci := c.NewInstance()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ci.Run(ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures runtime program installation cost, the
// whole of it: parse, verify, lower to closures, bind an instance. It is
// paid once per analyzer, never per event.
func BenchmarkCompile(b *testing.B) {
	env := testVerifyEnv("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := ecode.Compile(cpaBenchSource)
		if err != nil {
			b.Fatal(err)
		}
		c, _, err := prog.CompileVerified(env)
		if err != nil {
			b.Fatal(err)
		}
		c.NewInstance()
	}
}

// BenchmarkVerify measures install-time verification cost (paid once
// per install, never per event).
func BenchmarkVerify(b *testing.B) {
	prog := ecode.MustCompile(cpaBenchSource)
	env := testVerifyEnv("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := prog.Verify(env); !v.OK {
			b.Fatal(v.Render())
		}
	}
}
