package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGolden runs each analyzer over its fixture package under
// testdata/src and matches the produced diagnostics against the
// `// want ...` comments in the fixture source.
func TestGolden(t *testing.T) {
	src := filepath.Join("testdata", "src")
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			diags, err := Run(src, []string{"./" + a.Name}, []*Analyzer{a})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			fixture := filepath.Join(src, a.Name, a.Name+".go")
			checkWants(t, fixture, diags)
		})
	}
}

var wantRe = regexp.MustCompile("// want (`[^`]*`(?: `[^`]*`)*)")

// checkWants matches diagnostics against `// want` comments: every want
// needs a diagnostic on its line matching its regexp, and every
// diagnostic needs a want.
func checkWants(t *testing.T, fixture string, diags []Diagnostic) {
	t.Helper()
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}

	type want struct {
		line    int
		re      *regexp.Regexp
		matched bool
	}
	var wants []*want
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, quoted := range strings.Split(m[1], "` `") {
			expr := strings.Trim(quoted, "`")
			re, err := regexp.Compile(expr)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", fixture, i+1, expr, err)
			}
			wants = append(wants, &want{line: i + 1, re: re})
		}
	}

	base := filepath.Base(fixture)
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) != base {
			t.Errorf("diagnostic outside fixture: %s", d)
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.matched && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", base, w.line, w.re)
		}
	}
}

// TestByName covers the analyzer selection used by the CLI flag.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("atomicmix, nonblock")
	if err != nil || len(two) != 2 || two[0].Name != "atomicmix" || two[1].Name != "nonblock" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch): want error")
	}
}

// TestDiagnosticString pins the file:line:col rendering the CI job greps.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "nonblock", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 9
	got := d.String()
	want := "x.go:3:9: nonblock: boom"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestSuppressionIndex covers same-line and line-above coverage.
func TestSuppressionIndex(t *testing.T) {
	idx := buildSuppressionIndex([]suppression{{file: "f.go", line: 10, analyzer: "nonblock", reason: "r"}})
	for _, tc := range []struct {
		line     int
		analyzer string
		want     bool
	}{
		{10, "nonblock", true},
		{11, "nonblock", true},
		{12, "nonblock", false},
		{10, "atomicmix", false},
	} {
		pos := token.Position{Filename: "f.go", Line: tc.line, Column: 1}
		if got := idx.covers(tc.analyzer, pos); got != tc.want {
			t.Errorf("covers(%s, line %d) = %v, want %v", tc.analyzer, tc.line, got, tc.want)
		}
	}
}
