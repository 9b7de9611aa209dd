package ecode

import (
	"errors"
	"strings"
	"testing"
)

// sample is the host record these tests bind as "ev".
type sample struct {
	typ     string
	bytes   int64
	latency float64
}

var sampleEnv = VerifyEnv{Binding: Bind("ev",
	Str("type", func(s *sample) string { return s.typ }),
	Int("bytes", func(s *sample) int64 { return s.bytes }),
	Float("latency", func(s *sample) float64 { return s.latency }),
)}

func run(t *testing.T, src string, host *sample) Value {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := prog.NewInstance(WithEnv(sampleEnv)).Run(host)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{"return 1 + 2 * 3;", int64(7)},
		{"return (1 + 2) * 3;", int64(9)},
		{"return 10 / 3;", int64(3)},
		{"return 10 % 3;", int64(1)},
		{"return 10.0 / 4;", 2.5},
		{"return -5 + 2;", int64(-3)},
		{"return 1 < 2;", true},
		{"return 2.5 >= 2.5;", true},
		{"return \"a\" + \"b\";", "ab"},
		{"return \"abc\" == \"abc\";", true},
		{"return true && false;", false},
		{"return true || false;", true},
		{"return !false;", true},
		{"return 1 == 1.0;", true},
	}
	for _, tt := range tests {
		if got := run(t, tt.src, nil); got != tt.want {
			t.Errorf("%s = %v (%T), want %v", tt.src, got, got, tt.want)
		}
	}
}

func TestVariablesAndAssignment(t *testing.T) {
	src := `
		int x = 3;
		x += 4;
		x *= 2;
		x++;
		return x;
	`
	if got := run(t, src, nil); got != int64(15) {
		t.Fatalf("got %v", got)
	}
}

func TestIfElseChain(t *testing.T) {
	src := `
		int x = 7;
		string label = "";
		if (x > 10) { label = "big"; }
		else if (x > 5) { label = "mid"; }
		else { label = "small"; }
		return label;
	`
	if got := run(t, src, nil); got != "mid" {
		t.Fatalf("got %v", got)
	}
}

func TestForLoop(t *testing.T) {
	src := `
		int sum = 0;
		for (int i = 1; i <= 10; i++) { sum += i; }
		return sum;
	`
	if got := run(t, src, nil); got != int64(55) {
		t.Fatalf("got %v", got)
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
		int sum = 0;
		for (int i = 0; i < 100; i++) {
			if (i % 2 == 0) { continue; }
			if (i > 8) { break; }
			sum += i;
		}
		return sum; // 1+3+5+7 = 16
	`
	if got := run(t, src, nil); got != int64(16) {
		t.Fatalf("got %v", got)
	}
}

func TestStaticPersistsAcrossRuns(t *testing.T) {
	prog := MustCompile(`
		static int count = 0;
		count++;
		return count;
	`)
	inst := prog.NewInstance()
	for want := int64(1); want <= 3; want++ {
		got, err := inst.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: got %v", want, got)
		}
	}
	if v, ok := inst.Static("count"); !ok || v != int64(3) {
		t.Fatalf("Static(count) = %v, %v", v, ok)
	}
	// A fresh instance starts over.
	if got, _ := prog.NewInstance().Run(nil); got != int64(1) {
		t.Fatalf("fresh instance got %v", got)
	}
}

func TestRecordFieldAccess(t *testing.T) {
	src := `
		if (ev.type == "net_rx" && ev.bytes > 1000) { return "big"; }
		return "small";
	`
	out := run(t, src, &sample{typ: "net_rx", bytes: 1500})
	if out != "big" {
		t.Fatalf("got %v", out)
	}
}

func TestBuiltins(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{`return len("hello");`, int64(5)},
		{`return abs(-4);`, int64(4)},
		{`return abs(-2.5);`, 2.5},
		{`return min(3, 1, 2);`, int64(1)},
		{`return max(3, 1, 2);`, int64(3)},
		{`return max(-1.5, -0.5);`, -0.5},
		// Ints compare exactly, not through float64, which cannot tell
		// these two apart.
		{`return min(9007199254740993, 9007199254740992);`, int64(9007199254740992)},
		{`return max(9007199254740992, 9007199254740993);`, int64(9007199254740993)},
		{`return contains("hello world", "wor");`, true},
	}
	for _, tt := range tests {
		if got := run(t, tt.src, nil); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestCustomBuiltin(t *testing.T) {
	prog := MustCompile(`emit("ch", 42); return 0;`)
	var gotChannel string
	var gotVal Value
	inst := prog.NewInstance(WithEnv(VerifyEnv{Builtins: map[string]Builtin{
		"emit": {Fn: func(args []Arg) Arg {
			gotChannel = args[0].Str
			gotVal = args[1].Value()
			return Arg{T: TInt}
		}},
	}}))
	if _, err := inst.Run(nil); err != nil {
		t.Fatal(err)
	}
	if gotChannel != "ch" || gotVal != int64(42) {
		t.Fatalf("emit got %q %v", gotChannel, gotVal)
	}
}

func TestStepLimitStopsRunawayLoop(t *testing.T) {
	prog := MustCompile(`for (;;) { }`)
	inst := prog.NewInstance(WithStepLimit(1000))
	_, err := inst.Run(nil)
	var rte *RuntimeError
	if !errors.As(err, &rte) || !strings.Contains(rte.Msg, "step limit") {
		t.Fatalf("err = %v, want step-limit runtime error", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"return 1 / 0;", "division by zero"},
		{"return 1 % 0;", "modulo by zero"},
		{"return x;", "undefined variable"},
		{"x = 3;", "undeclared variable"},
		{"return nosuchfn();", "unknown function"},
		{`return ev.bogus;`, "no field"},
		{"return 1 + \"a\";", "on int64 and string"},
		{"if (3) { }", "not bool"},
	}
	for _, tt := range tests {
		prog, err := Compile(tt.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", tt.src, err)
		}
		_, err = prog.NewInstance(WithEnv(sampleEnv)).Run(&sample{})
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: err = %v, want containing %q", tt.src, err, tt.want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	tests := []string{
		"return 1 +;",
		"if (true) return 1;", // block required
		"int = 3;",
		"for (;; { }",
		`return "unterminated;`,
		"return 1",
		"@",
		"/* unterminated",
	}
	for _, src := range tests {
		if _, err := Compile(src); err == nil {
			t.Errorf("%q compiled, want syntax error", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%q: error %v is not *SyntaxError", src, err)
			}
		}
	}
}

func TestComments(t *testing.T) {
	src := `
		// line comment
		int x = 1; /* block
		comment */ x += 1;
		return x;
	`
	if got := run(t, src, nil); got != int64(2) {
		t.Fatalf("got %v", got)
	}
}

func TestScopingShadow(t *testing.T) {
	src := `
		int x = 1;
		if (true) {
			int x = 10;
			x += 5;
		}
		return x;
	`
	if got := run(t, src, nil); got != int64(1) {
		t.Fatalf("inner scope leaked: got %v", got)
	}
}

func TestDeclCoercion(t *testing.T) {
	if got := run(t, "float f = 3; return f * 2;", nil); got != 6.0 {
		t.Fatalf("got %v", got)
	}
	if got := run(t, "int i = 3.9; return i;", nil); got != int64(3) {
		t.Fatalf("got %v", got)
	}
}

// A realistic CPA: track per-run mean of a metric and flag outliers.
func TestRealisticCPA(t *testing.T) {
	prog := MustCompile(`
		static int n = 0;
		static float sum = 0.0;
		n++;
		sum += ev.latency;
		float mean = sum / n;
		if (ev.latency > mean * 2.0 && n > 3) { return true; }
		return false;
	`)
	inst := prog.NewInstance(WithEnv(sampleEnv))
	latencies := []float64{10, 11, 9, 10, 50}
	var flagged int
	for _, l := range latencies {
		out, err := inst.Run(&sample{latency: l})
		if err != nil {
			t.Fatal(err)
		}
		if out == true {
			flagged++
		}
	}
	if flagged != 1 {
		t.Fatalf("flagged %d outliers, want 1", flagged)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
		int n = 0;
		int sum = 0;
		while (n < 5) {
			sum += n;
			n++;
		}
		return sum;
	`
	if got := run(t, src, nil); got != int64(10) {
		t.Fatalf("got %v", got)
	}
	// while with break.
	src2 := `
		int n = 0;
		while (true) {
			n++;
			if (n >= 3) { break; }
		}
		return n;
	`
	if got := run(t, src2, nil); got != int64(3) {
		t.Fatalf("got %v", got)
	}
	if _, err := Compile("while true { }"); err == nil {
		t.Fatal("missing parens accepted")
	}
}
