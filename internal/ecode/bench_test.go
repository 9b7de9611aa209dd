package ecode

import "testing"

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
// same program and event: the tree-walking interpreter (with its
// runtime step limit) versus the verified-and-compiled closures (no
// step counting — termination is proven at install time).
func BenchmarkCPAPerEvent(b *testing.B) {
	bindings := map[string]Value{
		"ev": MapRecord{"type": "net_rx", "bytes": int64(1500)},
	}
	b.Run("interp", func(b *testing.B) {
		inst := MustCompile(cpaBenchSource).NewInstance()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := inst.Run(bindings); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		env := VerifyEnv{
			Name:    "bench",
			Records: map[string]RecordSchema{"ev": {"type": TString, "bytes": TInt}},
		}
		c, verdict, err := MustCompile(cpaBenchSource).CompileVerified(env)
		if err != nil {
			b.Fatalf("%v\n%s", err, verdict.Render())
		}
		ci, err := c.NewInstance(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ci.Run(bindings); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures runtime program installation cost, the
// whole of it: parse, verify, lower to closures, bind an instance. It is
// paid once per analyzer, never per event.
func BenchmarkCompile(b *testing.B) {
	env := VerifyEnv{
		Name:    "bench",
		Records: map[string]RecordSchema{"ev": {"type": TString, "bytes": TInt}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := Compile(cpaBenchSource)
		if err != nil {
			b.Fatal(err)
		}
		c, _, err := prog.CompileVerified(env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.NewInstance(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify measures install-time verification cost (paid once
// per install, never per event).
func BenchmarkVerify(b *testing.B) {
	prog := MustCompile(cpaBenchSource)
	env := VerifyEnv{
		Name:    "bench",
		Records: map[string]RecordSchema{"ev": {"type": TString, "bytes": TInt}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := prog.Verify(env); !v.OK {
			b.Fatal(v.Render())
		}
	}
}
