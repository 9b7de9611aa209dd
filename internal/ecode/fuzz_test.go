package ecode_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sysprof/internal/ecode"
)

// FuzzVerify throws arbitrary source at the full trust pipeline:
// parse, verify, verify again (the verdict must be deterministic), and
// — for accepted programs — compile to closures and run both engines
// against a sample event, requiring identical outcomes. Nothing along
// the way may panic: the verifier fronts the analyzer install path, so
// every byte sequence a client can send must come back as either a
// clean verdict or a diagnostic, never a crash.
func FuzzVerify(f *testing.F) {
	for _, dir := range []string{"accept", "reject"} {
		paths, err := filepath.Glob(filepath.Join("testdata", "verify", dir, "*.ec"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no %s fixtures: %v", dir, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	// Adversarial shapes the fixtures don't cover: malformed syntax,
	// runtime arithmetic faults, deep nesting, statics, stray tokens.
	f.Add(`return 1 / 0;`)
	f.Add(`int x = 0; x /= x; return x;`)
	f.Add(`static int n = 0; n += 1; return n;`)
	f.Add(`for (int i = 0; i < 3; i++) { for (int j = 0; j < 3; j++) { emit("t", i * j); } } return 0;`)
	f.Add(`}{`)
	f.Add(`while (true) { emit(`)
	f.Add(`string s = "unterminated`)
	f.Add("\x00\xff")
	for _, tc := range scopingCases {
		f.Add(tc.src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ecode.Compile(src)
		if err != nil {
			// Parse errors must at least be stable across compiles.
			_, err2 := ecode.Compile(src)
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("nondeterministic compile: %v vs %v", err, err2)
			}
			return
		}
		env := testVerifyEnv("fuzz")
		v1 := prog.Verify(env)
		v2 := prog.Verify(env)
		if v1.OK != v2.OK || v1.Cost != v2.Cost || v1.Render() != v2.Render() {
			t.Fatalf("nondeterministic verdict:\n--- first\nok=%v cost=%d\n%s\n--- second\nok=%v cost=%d\n%s",
				v1.OK, v1.Cost, v1.Render(), v2.OK, v2.Cost, v2.Render())
		}
		if !v1.OK {
			return
		}
		// Accepted programs are safe to execute by construction; both
		// engines must agree on the result (diffRun fails the test on
		// any divergence in value or error text).
		_, err = diffRun(t, src, env, testEvent())
		// The verifier typed every field and builtin argument, so the
		// only fault left to run time is arithmetic.
		if err != nil && !strings.Contains(err.Error(), "by zero") {
			t.Fatalf("accepted program raised a runtime error the verifier should have excluded: %v", err)
		}
	})
}
