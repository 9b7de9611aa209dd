package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureModule runs the full suite over a two-package fixture
// module with a module-local import; the clean result proves import
// resolution and annotation handling end to end.
func TestFixtureModule(t *testing.T) {
	diags, err := Run(filepath.Join("testdata", "module"), []string{"./..."}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("fixture module should be clean, got:\n%s", renderDiags(diags))
	}
}

// TestMalformedSuppression: a //lint:ignore with no reason, and one
// naming an analyzer that does not exist, are themselves findings,
// reported under the "lint" pseudo-analyzer.
func TestMalformedSuppression(t *testing.T) {
	diags, err := Run(filepath.Join("testdata", "src"), []string{"./badsup"}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("want exactly two \"lint\" diagnostics, got:\n%s", renderDiags(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "lint" {
			t.Fatalf("want analyzer \"lint\", got:\n%s", renderDiags(diags))
		}
	}
	if !hasFinding(diags, "lint", "malformed suppression") {
		t.Fatalf("missing malformed-suppression finding:\n%s", renderDiags(diags))
	}
	if !hasFinding(diags, "lint", `unknown analyzer "nosuchanalyzer"`) {
		t.Fatalf("missing unknown-analyzer finding:\n%s", renderDiags(diags))
	}
}

// maxRepoSuppressions pins the suppression inventory: one nonblock (the
// bounded BlockWithDeadline wait) and two atomicmix (the frame refcount
// preset before the frame is shared). New suppressions need a precision
// argument, not just a reason string — prefer teaching the analyzer the
// pattern.
const maxRepoSuppressions = 3

// TestRepoSuppressions is the suppression-hygiene gate for the real
// tree: every //lint:ignore outside testdata must name an existing
// analyzer and carry a non-empty reason, and the total count must not
// creep back up. A stale or bare suppression silences nothing and must
// not survive review.
func TestRepoSuppressions(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	count := 0
	err = filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		base := filepath.Base(p)
		if info.IsDir() {
			if base == "testdata" || strings.HasPrefix(base, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sups := collectSuppressions(fset, file, func(d Diagnostic) {
			t.Errorf("%s: %s", d.Pos, d.Message)
		})
		for _, s := range sups {
			if strings.TrimSpace(s.reason) == "" {
				t.Errorf("%s:%d: suppression for %s has an empty reason", s.file, s.line, s.analyzer)
			}
		}
		count += len(sups)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count > maxRepoSuppressions {
		t.Errorf("repo has %d suppressions, cap is %d: teach the analyzer the pattern instead", count, maxRepoSuppressions)
	}
	t.Logf("checked %d suppressions (cap %d)", count, maxRepoSuppressions)
}

// TestStaleSuppression: a suppression that covers none of its analyzer's
// findings is itself a finding — but only when that analyzer ran, and
// never for one that covered a real finding.
func TestStaleSuppression(t *testing.T) {
	src := filepath.Join("testdata", "src")
	diags, err := Run(src, []string{"./stalesup"}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 2 || !hasFinding(diags, "lint", "stale suppression: no nonblock finding") ||
		!hasFinding(diags, "lint", "stale suppression: no atomicmix finding") {
		t.Fatalf("want the stale nonblock and atomicmix suppressions, got:\n%s", renderDiags(diags))
	}
	diags, err = Run(src, []string{"./stalesup"}, []*Analyzer{NonBlock})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 || !hasFinding(diags, "lint", "no nonblock finding") {
		t.Fatalf("an atomicmix suppression is not stale when atomicmix did not run, got:\n%s", renderDiags(diags))
	}
}

// TestSortAndDedupe pins the canonical diagnostic order — file, line,
// column, analyzer, message — and the collapse of identical findings
// reached via multiple call-graph paths into one.
func TestSortAndDedupe(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) Diagnostic {
		d := Diagnostic{Analyzer: analyzer, Message: msg}
		d.Pos.Filename = file
		d.Pos.Line = line
		d.Pos.Column = col
		return d
	}
	in := []Diagnostic{
		mk("b.go", 3, 1, "nonblock", "z"),
		mk("a.go", 10, 2, "nonblock", "m"),
		mk("a.go", 10, 2, "atomicmix", "m"), // same pos, earlier analyzer
		mk("a.go", 10, 2, "nonblock", "m"),  // exact duplicate: dropped
		mk("a.go", 2, 9, "nonblock", "x"),
		mk("b.go", 3, 1, "nonblock", "a"),
	}
	want := []string{
		"a.go:2:9: nonblock: x",
		"a.go:10:2: atomicmix: m",
		"a.go:10:2: nonblock: m",
		"b.go:3:1: nonblock: a",
		"b.go:3:1: nonblock: z",
	}
	out := sortAndDedupe(in)
	if len(out) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(out), len(want), renderDiags(out))
	}
	for i, w := range want {
		if got := out[i].String(); got != w {
			t.Errorf("out[%d] = %q, want %q", i, got, w)
		}
	}
}

// TestCrossPackageChain: an annotated function whose blocking operation
// sits two packages away is reported at the first hop, with the full
// call chain attached as evidence.
func TestCrossPackageChain(t *testing.T) {
	diags, err := Run(filepath.Join("testdata", "chain"), []string{"./emit"}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got:\n%s", renderDiags(diags))
	}
	d := diags[0]
	if d.Analyzer != "nonblock" {
		t.Fatalf("want a nonblock finding, got %s", d)
	}
	wantMsg := "Emit is //sysprof:nonblocking but calls relay.Forward, which calls wire.Send, which calls net.Write"
	if d.Message != wantMsg {
		t.Fatalf("message = %q, want %q", d.Message, wantMsg)
	}
	if filepath.Base(d.Pos.Filename) != "emit.go" {
		t.Fatalf("diagnostic anchored at %s, want emit.go", d.Pos.Filename)
	}
	if len(d.Chain) != 3 {
		t.Fatalf("want a 3-frame chain, got %d:\n%s", len(d.Chain), d.Detail())
	}
	for i, wantFile := range []string{"emit.go", "relay.go", "wire.go"} {
		if got := filepath.Base(d.Chain[i].Pos.Filename); got != wantFile {
			t.Errorf("chain[%d] in %s, want %s", i, got, wantFile)
		}
	}
	detail := d.Detail()
	for _, frag := range []string{"\n\t", "relay.go", "wire.go", "calls net.Write"} {
		if !strings.Contains(detail, frag) {
			t.Errorf("Detail() missing %q:\n%s", frag, detail)
		}
	}
}

// copyTree copies a fixture module (all files) into a temp root.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		copyFile(t, p, filepath.Join(dst, rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestChainMutations: removing the net.Conn.Write clears the nonblock
// chain — the finding (and with it the CLI exit code) flips with the
// code, not with the fixture.
func TestChainMutations(t *testing.T) {
	t.Run("nonblocking-leaf-is-clean", func(t *testing.T) {
		root := copyTree(t, filepath.Join("testdata", "chain"))
		mutate(t, root, filepath.Join("wire", "wire.go"),
			"\tif conn != nil {\n\t\tconn.Write(b)\n\t}\n",
			"\t_ = len(b)\n")
		diags, err := Run(root, []string{"./emit"}, All())
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Fatalf("chain without a blocking leaf should be clean, got:\n%s", renderDiags(diags))
		}
	})
}

// TestFuncValueChain: annotated functions that reach the blocking leaf
// only through function values — a package-level var, a local var, and
// a func literal, each assigned exactly once — are all reported with
// "(through a function value)" in the message, while the reassigned
// variable (NotifyFlaky) stays unresolved and produces no finding.
func TestFuncValueChain(t *testing.T) {
	diags, err := Run(filepath.Join("testdata", "chain"), []string{"./hooks"}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 3 {
		t.Fatalf("want exactly three diagnostics, got:\n%s", renderDiags(diags))
	}
	wants := []string{
		"Notify is //sysprof:nonblocking but calls wire.Send (through a function value), which calls net.Write",
		"NotifyLocal is //sysprof:nonblocking but calls wire.Send (through a function value), which calls net.Write",
		"NotifyLit is //sysprof:nonblocking but calls func literal bound to f (through a function value), which calls wire.Send, which calls net.Write",
	}
	for _, want := range wants {
		if !hasFinding(diags, "nonblock", want) {
			t.Errorf("missing finding %q, got:\n%s", want, renderDiags(diags))
		}
	}
	if hasFinding(diags, "nonblock", "NotifyFlaky") {
		t.Errorf("reassigned function value must stay unresolved, got:\n%s", renderDiags(diags))
	}
	for _, d := range diags {
		if len(d.Chain) < 2 {
			t.Errorf("func-value finding should carry a chain, got:\n%s", d.Detail())
			continue
		}
		if got := filepath.Base(d.Chain[0].Pos.Filename); got != "hooks.go" {
			t.Errorf("chain starts in %s, want hooks.go", got)
		}
		if got := filepath.Base(d.Chain[len(d.Chain)-1].Pos.Filename); got != "wire.go" {
			t.Errorf("chain ends in %s, want wire.go", got)
		}
		if !strings.Contains(d.Detail(), "(through a function value)") {
			t.Errorf("Detail() missing the func-value marker:\n%s", d.Detail())
		}
	}
}

// TestFuncValueMutations: the single-assignment condition has teeth. A
// second assignment — or taking the variable's address, which lets
// anyone rebind it — degrades the edge to unresolved and the finding
// disappears, while the untouched siblings keep theirs.
func TestFuncValueMutations(t *testing.T) {
	t.Run("reassignment-disqualifies", func(t *testing.T) {
		root := copyTree(t, filepath.Join("testdata", "chain"))
		mutate(t, root, filepath.Join("hooks", "hooks.go"),
			"func Notify(rec []byte) {\n\tsend(rec)\n",
			"func Notify(rec []byte) {\n\tsend = wire.Send\n\tsend(rec)\n")
		diags, err := Run(root, []string{"./hooks"}, All())
		if err != nil {
			t.Fatal(err)
		}
		if hasFinding(diags, "nonblock", "Notify is //sysprof:nonblocking") {
			t.Fatalf("reassigned send should drop the Notify finding, got:\n%s", renderDiags(diags))
		}
		if !hasFinding(diags, "nonblock", "NotifyLocal is") || !hasFinding(diags, "nonblock", "NotifyLit is") {
			t.Fatalf("sibling findings should survive the mutation, got:\n%s", renderDiags(diags))
		}
	})

	t.Run("address-taken-disqualifies", func(t *testing.T) {
		root := copyTree(t, filepath.Join("testdata", "chain"))
		mutate(t, root, filepath.Join("hooks", "hooks.go"),
			"\tf := wire.Send\n\tf(rec)\n",
			"\tf := wire.Send\n\t_ = &f\n\tf(rec)\n")
		diags, err := Run(root, []string{"./hooks"}, All())
		if err != nil {
			t.Fatal(err)
		}
		if hasFinding(diags, "nonblock", "NotifyLocal is") {
			t.Fatalf("address-taken f should drop the NotifyLocal finding, got:\n%s", renderDiags(diags))
		}
		if !hasFinding(diags, "nonblock", "Notify is //sysprof:nonblocking") || !hasFinding(diags, "nonblock", "NotifyLit is") {
			t.Fatalf("sibling findings should survive the mutation, got:\n%s", renderDiags(diags))
		}
	})
}

// TestInterfaceDispatchIsConservative: the dispatch fixture has two
// implementations of sink.Sink, and only the non-blocking MemSink is
// ever converted to the interface. Class-hierarchy resolution still
// makes the blocking NetSink a target of the annotated call through
// Sink.Write, so Emit is a finding; taking the blocking write out of
// NetSink makes the same fixture lint clean.
func TestInterfaceDispatchIsConservative(t *testing.T) {
	diags, err := Run(filepath.Join("testdata", "dispatch"), []string{"./..."}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "Emit is //sysprof:nonblocking but calls sink.NetSink.Write (interface dispatch), which calls net.Write"
	if len(diags) != 1 || diags[0].Analyzer != "nonblock" || diags[0].Message != want {
		t.Fatalf("want exactly %q, got:\n%s", want, renderDiags(diags))
	}

	root := copyTree(t, filepath.Join("testdata", "dispatch"))
	mutate(t, root, filepath.Join("sink", "sink.go"),
		"\tif s.conn != nil {\n\t\ts.conn.Write(b)\n\t}\n", "\t_ = s.conn\n")
	diags, err = Run(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("dispatch with no blocking implementation should be clean, got:\n%s", renderDiags(diags))
	}
}

// TestUnknownPattern: patterns escaping the module are run errors, not
// findings.
func TestUnknownPattern(t *testing.T) {
	if _, err := Run(filepath.Join("testdata", "module"), []string{"../outside"}, All()); err == nil {
		t.Fatal("want error for pattern outside the module")
	}
}

// --- mutation tests over the real tree ------------------------------
//
// The unmutated tree lints clean, and each analyzer fires on a one-line
// mutation of the real code it guards: a sleep behind the publish path
// (nonblock), a plain read of the frame refcount (atomicmix).

// copyRepoSubset copies go.mod plus internal/ (minus lint itself and
// testdata) into a temp module root.
func copyRepoSubset(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	dst := t.TempDir()
	copyFile(t, filepath.Join(root, "go.mod"), filepath.Join(dst, "go.mod"))
	err = filepath.Walk(filepath.Join(root, "internal"), func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		base := filepath.Base(p)
		if info.IsDir() {
			if base == "lint" || base == "testdata" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(base, ".go") || strings.HasSuffix(base, "_test.go") {
			return nil
		}
		copyFile(t, p, filepath.Join(dst, rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// mutate rewrites one file under root by replacing old with new
// (exactly once).
func mutate(t *testing.T, root, rel, old, new string) {
	t.Helper()
	p := filepath.Join(root, rel)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("%s does not contain %q", rel, old)
	}
	out := strings.Replace(string(data), old, new, 1)
	if err := os.WriteFile(p, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMutations(t *testing.T) {
	root := copyRepoSubset(t)
	patterns := []string{"./internal/gpa", "./internal/kprof"}

	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := loader.Run(patterns, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 0 {
		t.Fatalf("unmutated tree should lint clean, got:\n%s", renderDiags(baseline))
	}

	t.Run("dissem-publish-sleep", func(t *testing.T) {
		// Cross-package teeth: the injected sleep sits in pubsub, the
		// annotation in dissem — only the module call graph connects them.
		mroot := copyRepoSubset(t)
		mutate(t, mroot, filepath.Join("internal", "pubsub", "pubsub.go"),
			"func (b *Broker) fanOut(remotes []*remoteConn, f *frame) {\n",
			"func (b *Broker) fanOut(remotes []*remoteConn, f *frame) {\n\ttime.Sleep(0)\n")
		diags, err := Run(mroot, []string{"./internal/dissem"}, All())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range diags {
			if d.Analyzer != "nonblock" || !strings.Contains(d.Message, "which calls time.Sleep") {
				continue
			}
			found = true
			last := d.Chain[len(d.Chain)-1]
			if filepath.Base(last.Pos.Filename) != "pubsub.go" {
				t.Errorf("chain should end in pubsub.go, got:\n%s", d.Detail())
			}
		}
		if !found {
			t.Fatalf("want a transitive nonblock finding in dissem, got:\n%s", renderDiags(diags))
		}
	})

	t.Run("dissem-batch-sleep", func(t *testing.T) {
		// Interface teeth: publishColumns reaches AggregateBatch.Len only
		// through pubsub's calls on the core.Batch interface.
		mroot := copyRepoSubset(t)
		mutate(t, mroot, filepath.Join("internal", "dissem", "dissem.go"),
			"func (a AggregateBatch) Len() int { return len(a) }",
			"func (a AggregateBatch) Len() int { time.Sleep(0); return len(a) }")
		diags, err := Run(mroot, []string{"./internal/dissem"}, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if d.Analyzer == "nonblock" && strings.HasPrefix(d.Message, "Daemon.publishColumns is") &&
				strings.Contains(d.Detail(), "dissem.AggregateBatch.Len (interface dispatch)") {
				return
			}
		}
		t.Fatalf("want a nonblock finding at Daemon.publishColumns through the AggregateBatch.Len dispatch, got:\n%s", renderDiags(diags))
	})

	t.Run("pubsub-machine-sleep", func(t *testing.T) {
		// Generic-receiver teeth: the send-queue state machine is a generic
		// type, and the annotated enqueue reaches it through an instantiated
		// method (Queue[*frame].Offer) that must resolve to its declaration.
		mroot := copyRepoSubset(t)
		mutate(t, mroot, filepath.Join("internal", "pubsub", "queue.go"),
			"func (q *Queue[F]) Offer(f F, recs uint64, policy OverflowPolicy) (a Admission[F]) {\n",
			"func (q *Queue[F]) Offer(f F, recs uint64, policy OverflowPolicy) (a Admission[F]) {\n\ttime.Sleep(0)\n")
		diags, err := Run(mroot, []string{"./internal/pubsub"}, All())
		if err != nil {
			t.Fatal(err)
		}
		if !hasFinding(diags, "nonblock", "which calls time.Sleep") {
			t.Fatalf("want a nonblock finding after adding a sleep to Queue.Offer, got:\n%s", renderDiags(diags))
		}
	})

	t.Run("pubsub-plain-refs-read", func(t *testing.T) {
		// Atomic-discipline teeth: release's fast path reads the shared
		// frame's refcount plainly while its slow path decrements it
		// atomically — the torn read the race detector catches only when
		// the schedule cooperates.
		mroot := copyRepoSubset(t)
		mutate(t, mroot, filepath.Join("internal", "pubsub", "queue.go"),
			"atomic.LoadInt64(&f.refs) == 1", "f.refs == 1")
		diags, err := Run(mroot, []string{"./internal/pubsub"}, All())
		if err != nil {
			t.Fatal(err)
		}
		if !hasFinding(diags, "atomicmix", "field refs is accessed atomically") {
			t.Fatalf("want an atomicmix finding after a plain read of f.refs, got:\n%s", renderDiags(diags))
		}
	})
}

// TestSuppressedFindings pins what the repo's suppressions cover: with
// every //lint:ignore line blanked, linting internal/ yields exactly
// these findings, keyed by analyzer, file and enclosing function. A
// call-graph change that silently drops a path fails here.
func TestSuppressedFindings(t *testing.T) {
	root := copyRepoSubset(t)
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		lines := strings.Split(string(data), "\n")
		blanked := false
		for i, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "//lint:ignore") {
				rel, _ := filepath.Rel(root, p)
				t.Logf("blanked %s:%d: %s", filepath.ToSlash(rel), i+1, strings.TrimSpace(line))
				lines[i] = ""
				blanked = true
			}
		}
		if !blanked {
			return nil
		}
		return os.WriteFile(p, []byte(strings.Join(lines, "\n")), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, []string{"./internal/..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"nonblock dissem/dissem.go Daemon.OnFull",
		"nonblock dissem/dissem.go Daemon.publishColumns",
		"atomicmix pubsub/columns.go Broker.encodeColumnsFrame",
		"atomicmix pubsub/pubsub.go Broker.fanOut",
		"nonblock pubsub/pubsub.go Broker.fanOut",
		"nonblock pubsub/queue.go sendQueue.enqueue",
	}
	var got []string
	for _, d := range diags {
		key := d.Analyzer + " " + filepath.Base(filepath.Dir(d.Pos.Filename)) + "/" +
			filepath.Base(d.Pos.Filename) + " " + enclosingFunc(t, d.Pos)
		t.Logf("finding: %s", key)
		got = append(got, key)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings with suppressions blanked:\n%s\nwant:\n%s\nfull:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"), renderDiags(diags))
	}
}

// enclosingFunc names the function declaration containing pos.
func enclosingFunc(t *testing.T, pos token.Position) string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, pos.Filename, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if ok && fset.Position(fn.Pos()).Line <= pos.Line && pos.Line <= fset.Position(fn.End()).Line {
			return funcDisplayName(fn)
		}
	}
	return "(no function)"
}

func hasFinding(diags []Diagnostic, analyzer, substr string) bool {
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

func renderDiags(diags []Diagnostic) string {
	if len(diags) == 0 {
		return "  (none)"
	}
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
}
