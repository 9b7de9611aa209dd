package ecode_test

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sysprof/internal/ecode"
)

var updateGolden = flag.Bool("update", false, "rewrite verifier golden .want files")

// fixtureHeader reads the //pass: and //want: directives of a reject
// fixture.
func fixtureHeader(t *testing.T, src string) (pass, want string) {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		if v, ok := strings.CutPrefix(line, "//pass: "); ok {
			pass = strings.TrimSpace(v)
		}
		if v, ok := strings.CutPrefix(line, "//want: "); ok {
			want = strings.TrimSpace(v)
		}
	}
	if pass == "" || want == "" {
		t.Fatal("fixture missing //pass: or //want: header")
	}
	return pass, want
}

func fixtures(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "verify", dir, "*.ec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s fixtures: %v", dir, err)
	}
	return paths
}

// TestVerifyAcceptFixtures: every analyzer under accept/ must verify
// clean, with a positive cost estimate under the default ceiling.
func TestVerifyAcceptFixtures(t *testing.T) {
	for _, path := range fixtures(t, "accept") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ecode.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		v := prog.Verify(testVerifyEnv(filepath.Base(path)))
		if !v.OK {
			t.Errorf("%s: rejected:\n%s", path, v.Render())
		}
		if v.Cost <= 0 || v.Cost > ecode.DefaultMaxCost {
			t.Errorf("%s: cost %d out of range (0, %d]", path, v.Cost, ecode.DefaultMaxCost)
		}
	}
}

// TestVerifyRejectFixtures pins each reject fixture's rendered verdict
// as a golden .want file (regenerate with -update) and checks every
// diagnostic carries the pass named in the fixture header.
func TestVerifyRejectFixtures(t *testing.T) {
	for _, path := range fixtures(t, "reject") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pass, want := fixtureHeader(t, string(src))
		prog, err := ecode.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		v := prog.Verify(testVerifyEnv(filepath.Base(path)))
		if v.OK {
			t.Errorf("%s: accepted, want rejection by %s", path, pass)
			continue
		}
		got := v.Render() + "\n"
		if !strings.Contains(got, want) {
			t.Errorf("%s: verdict does not mention %q:\n%s", path, want, got)
		}
		for _, d := range v.Diags {
			if d.Analyzer != pass {
				t.Errorf("%s: diagnostic from pass %s, fixture expects only %s: %s",
					path, d.Analyzer, pass, d.String())
			}
		}
		wantPath := strings.TrimSuffix(path, ".ec") + ".want"
		if *updateGolden {
			if err := os.WriteFile(wantPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(wantPath)
		if err != nil {
			t.Fatalf("%s: missing golden file (run go test -run RejectFixtures -update): %v", path, err)
		}
		if got != string(golden) {
			t.Errorf("%s: verdict drifted from golden\n got:\n%s\nwant:\n%s", path, got, golden)
		}
	}
}

// TestVerifyPassDisableFlips is the verifier's mutation test: every
// diagnostic a reject fixture draws comes from the one pass its header
// names, so that pass alone rejects it — take the pass away and the
// verdict flips — and no other pass masks it; and every pass is tripped
// by some fixture. (The name is from when a knob switched passes off to
// show the same thing.) CompileVerified must hand back no artifact for
// any of them.
func TestVerifyPassDisableFlips(t *testing.T) {
	tripped := map[string]bool{}
	for _, path := range fixtures(t, "reject") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pass, _ := fixtureHeader(t, string(src))
		tripped[pass] = true
		prog, err := ecode.Compile(string(src))
		if err != nil {
			t.Fatal(err)
		}
		v := prog.Verify(testVerifyEnv("x"))
		if v.OK || len(v.Diags) == 0 {
			t.Errorf("%s: not rejected", path)
		}
		for _, d := range v.Diags {
			if d.Analyzer != pass {
				t.Errorf("%s: pass %s also rejects it, so %s is not shown to have teeth alone: %s",
					path, d.Analyzer, pass, d.String())
			}
		}
		if c, _, err := prog.CompileVerified(testVerifyEnv("x")); c != nil || err == nil {
			t.Errorf("%s: CompileVerified = (%v, %v), want no artifact and an error", path, c, err)
		}
	}
	for _, pass := range []string{ecode.PassTypecheck, ecode.PassTermination, ecode.PassNoAlloc, ecode.PassNoBlock, ecode.PassCost} {
		if !tripped[pass] {
			t.Errorf("no reject fixture exercises pass %s", pass)
		}
	}
}

// TestVerifyDiagnosticShape checks the evidence-chain rendering matches
// sysproflint's: file:line:col first line, tab-indented chain frames.
func TestVerifyDiagnosticShape(t *testing.T) {
	prog := ecode.MustCompile(`
static int n = 0;
while (true) {
	n += 1;
}
return n;
`)
	v := prog.Verify(testVerifyEnv("hostile.ec"))
	if v.OK {
		t.Fatal("unbounded loop accepted")
	}
	first := regexp.MustCompile(`^hostile\.ec:\d+:\d+: termination: loop is not provably bounded$`)
	lines := strings.Split(v.Render(), "\n")
	if !first.MatchString(lines[0]) {
		t.Errorf("first line %q does not match file:line:col shape", lines[0])
	}
	if len(lines) < 2 {
		t.Fatal("no evidence chain rendered")
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "\t") {
			t.Errorf("chain line %q not tab-indented", l)
		}
	}
}

// TestVerifyCostEstimate pins the cost model's loop multiplication: a
// bounded loop's body is charged per proven iteration.
func TestVerifyCostEstimate(t *testing.T) {
	flat := ecode.MustCompile(`int a = 1; return a;`).Verify(testVerifyEnv("x"))
	if !flat.OK {
		t.Fatalf("flat program rejected:\n%s", flat.Render())
	}
	loop := ecode.MustCompile(`
int a = 0;
for (int i = 0; i < 100; i++) {
	a += 2;
}
return a;
`).Verify(testVerifyEnv("x"))
	if !loop.OK {
		t.Fatalf("loop program rejected:\n%s", loop.Render())
	}
	if loop.Cost < 100 {
		t.Errorf("loop cost %d does not reflect 100 proven iterations", loop.Cost)
	}
	if loop.Cost <= flat.Cost {
		t.Errorf("loop cost %d not greater than flat cost %d", loop.Cost, flat.Cost)
	}
}

// TestVerifyLoopBounds covers the loop-bound inference matrix beyond
// the fixtures.
func TestVerifyLoopBounds(t *testing.T) {
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		{"descending", `int n = 0; for (int i = 10; i > 0; i--) { n += i; } return n;`, true},
		{"step-up-ge", `int n = 0; for (int i = 0; 100 >= i; i += 7) { n++; } return n;`, true},
		{"limit-from-const", `int lim = 6 * 4; int n = 0; for (int i = 0; i < lim; i++) { n++; } return n;`, true},
		{"counter-reassigned", `int n = 0; for (int i = 0; i < 10; i++) { i = 0; n++; } return n;`, false},
		{"conditional-step", `int i = 0; int n = 0; while (i < 10) { if (ev.bytes > 0) { i++; } n++; } return n;`, false},
		{"step-away", `int n = 0; for (int i = 0; i < 10; i--) { n++; } return n;`, false},
		{"static-counter-limit", `static int lim = 5; int n = 0; for (int i = 0; i < lim; i++) { n++; } return n;`, false},
		{"zero-iterations", `int n = 0; for (int i = 5; i < 5; i++) { n++; } return n;`, true},
		// A bound read from a value no longer known runs far more steps
		// than it would be costed at; a skippable step or a wrapping
		// counter never ends.
		{"zero-trip-write-forgotten", `int x = 1000; for (int i = 0; i < 0; i++) { x = 1; } int s = 0; for (int j = 0; j < x; j++) { s += 1; } return s;`, false},
		{"then-write-not-in-else", `int x = 1000; int s = 0; if (ev.bytes > 9000) { x = 1; } else { for (int j = 0; j < x; j++) { s += 1; } } return s;`, false},
		{"continue-skips-step", `int i = 0; int s = 0; while (i < 10) { if (true) { continue; } i++; } return s;`, false},
		{"span-wraps", `int s = 0; for (int i = -9000000000000000000; i < 9000000000000000000; i++) { s += 1; } return s;`, false},
		{"counter-wraps", `int s = 0; for (int i = 0; i <= 9223372036854775807; i += 9223372036854775807) { s += 1; } return s;`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := ecode.MustCompile(tc.src).Verify(testVerifyEnv("x"))
			if v.OK != tc.ok {
				t.Errorf("OK=%v, want %v\n%s", v.OK, tc.ok, v.Render())
			}
		})
	}
}

// TestVerifyTypecheckMatrix covers typing rules beyond the fixtures.
func TestVerifyTypecheckMatrix(t *testing.T) {
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		{"int-float-promote", `float f = 1; f += 2; return f;`, true},
		{"plain-assign-strict", `float f = 1.0; f = 2; return f;`, false},
		{"compound-narrows", `int n = 0; n += 1.5; return n;`, false},
		{"mod-ints-only", `float f = 1.0; return f % 2.0;`, false},
		{"assign-undeclared", `x = 3; return 0;`, false},
		{"assign-to-binding", `ev = 3; return 0;`, false},
		{"bool-cond-required", `int n = 1; if (n) { return 1; } return 0;`, false},
		{"minmax-mixed", `return min(1, 2.0);`, false},
		{"minmax-same", `return min(1, 2, 3);`, true},
		{"len-wants-string", `return len(3);`, false},
		{"unknown-function", `return mystery(1);`, false},
		{"return-record", `return ev;`, false},
		{"static-redeclared-type", `static int n = 0; static float n = 0.0; return 0;`, false},
		{"emit-any-payload", `emit("ch", ev.last); return 0;`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := ecode.MustCompile(tc.src).Verify(testVerifyEnv("x"))
			if v.OK != tc.ok {
				t.Errorf("OK=%v, want %v\n%s", v.OK, tc.ok, v.Render())
			}
		})
	}
}
