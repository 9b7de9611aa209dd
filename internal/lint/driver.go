package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Loader parses and type-checks module packages. The standard-library
// package cache is shared process-wide (stdlib does not change between
// runs, and source-importing it is the expensive part).
type Loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*loadedPackage // by import path
	loading map[string]bool           // import-cycle guard
}

// loadedPackage is one parsed, type-checked module package.
type loadedPackage struct {
	path      string
	dir       string
	files     []*ast.File
	pkg       *types.Package
	info      *types.Info
	typeErrs  []error
	loadError error
}

// stdImporter is the process-wide stdlib source importer. All Loaders
// share one file set so positions from any loader resolve consistently.
var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.ImporterFrom
)

func sharedStd() (*token.FileSet, types.ImporterFrom) {
	stdOnce.Do(func() {
		// The source importer type-checks stdlib packages from GOROOT
		// source; cgo variants (net, os/user) cannot be type-checked
		// without running cgo, so select the pure-Go build of each.
		build.Default.CgoEnabled = false
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	})
	return stdFset, stdImp
}

// NewLoader returns a loader for the module rooted at modRoot (the
// directory containing go.mod). The module path is read from go.mod;
// imports under it resolve by path mapping onto the directory tree.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, fmt.Errorf("lint: resolve module root: %w", err)
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, std := sharedStd()
	return &Loader{
		fset:    fset,
		modRoot: abs,
		modPath: modPath,
		std:     std,
		pkgs:    make(map[string]*loadedPackage),
		loading: make(map[string]bool),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local import paths map
// onto the module tree, everything else is delegated to the stdlib source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		lp, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.ImportFrom(path, dir, 0)
}

// loadPath loads the module package with the given import path.
func (l *Loader) loadPath(path string) (*loadedPackage, error) {
	if lp, ok := l.pkgs[path]; ok {
		if lp.loadError != nil {
			return nil, lp.loadError
		}
		return lp, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
	l.loading[path] = true
	lp := l.loadDir(path, dir)
	delete(l.loading, path)
	l.pkgs[path] = lp
	if lp.loadError != nil {
		return nil, lp.loadError
	}
	return lp, nil
}

// loadDir parses and type-checks the non-test Go files of one directory.
// Type errors are collected, not fatal: analyzers run with whatever
// information was resolved (and the driver surfaces the errors as
// diagnostics of the target packages).
func (l *Loader) loadDir(path, dir string) *loadedPackage {
	lp := &loadedPackage{path: path, dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		lp.loadError = fmt.Errorf("lint: import %q: %w", path, err)
		return lp
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") ||
			strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		lp.loadError = fmt.Errorf("lint: import %q: no Go files in %s", path, dir)
		return lp
	}
	for _, name := range names {
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			lp.loadError = fmt.Errorf("lint: %w", err)
			return lp
		}
		lp.files = append(lp.files, file)
	}
	lp.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := types.Config{
		Importer: l,
		Error:    func(err error) { lp.typeErrs = append(lp.typeErrs, err) },
	}
	// Check never returns a usable package on hard import errors, but
	// with Error set it keeps going through ordinary type errors.
	pkg, err := cfg.Check(path, l.fset, lp.files, lp.info)
	if pkg == nil {
		lp.loadError = fmt.Errorf("lint: type-check %s: %w", path, err)
		return lp
	}
	lp.pkg = pkg
	return lp
}

// suppression is one //lint:ignore comment.
type suppression struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Position
}

// collectSuppressions scans a file's comments for //lint:ignore
// directives. Malformed directives (no analyzer, or no reason) and
// directives naming an analyzer that does not exist are reported as
// diagnostics of the pseudo-analyzer "lint"; Run reports the stale ones.
func collectSuppressions(fset *token.FileSet, file *ast.File, report func(Diagnostic)) []suppression {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []suppression
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) < 2 {
				report(Diagnostic{
					Pos:      pos,
					Analyzer: "lint",
					Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
				})
				continue
			}
			if !known[fields[0]] {
				report(Diagnostic{
					Pos:      pos,
					Analyzer: "lint",
					Message:  fmt.Sprintf("suppression names unknown analyzer %q", fields[0]),
				})
				continue
			}
			out = append(out, suppression{
				file:     pos.Filename,
				line:     pos.Line,
				analyzer: fields[0],
				reason:   strings.Join(fields[1:], " "),
				pos:      pos,
			})
		}
	}
	return out
}

// suppressionIndex answers "is this diagnostic suppressed" lookups and
// remembers which suppressions answered yes. A suppression covers its
// own line (trailing comment) and the line below it (comment above the
// flagged statement).
type suppressionIndex struct {
	byKey map[string][]int // "file:line:analyzer" -> covering suppressions
	used  []bool
}

func buildSuppressionIndex(sups []suppression) *suppressionIndex {
	idx := &suppressionIndex{byKey: make(map[string][]int), used: make([]bool, len(sups))}
	for i, s := range sups {
		for _, line := range []int{s.line, s.line + 1} {
			key := fmt.Sprintf("%s:%d:%s", s.file, line, s.analyzer)
			idx.byKey[key] = append(idx.byKey[key], i)
		}
	}
	return idx
}

// covers reports whether a suppression covers pos for the analyzer and
// marks each covering suppression used: the driver asks about every
// finding, and nonblock about each blocking site and blocking call edge
// it would otherwise propagate.
func (idx *suppressionIndex) covers(analyzer string, pos token.Position) bool {
	hits := idx.byKey[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, analyzer)]
	for _, i := range hits {
		idx.used[i] = true
	}
	return len(hits) > 0
}

// Run lints the packages matched by patterns ("./..." for the whole
// module, or directory-ish patterns like "./internal/kprof") with the
// given analyzers, returning the surviving diagnostics sorted by
// position. A non-nil error means the run itself failed (bad pattern,
// unreadable module); type errors in linted packages are returned as
// diagnostics instead, so partially broken code still gets linted.
func Run(modRoot string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	loader, err := NewLoader(modRoot)
	if err != nil {
		return nil, err
	}
	return loader.Run(patterns, analyzers)
}

// Run is Run with a caller-made loader. Each call builds the call graph
// afresh over every package loaded so far.
func (l *Loader) Run(patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	paths, err := l.expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	targetSet := make(map[string]bool, len(paths))
	var targets []*loadedPackage
	for _, path := range paths {
		lp, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		targets = append(targets, lp)
		targetSet[path] = true
	}

	// Suppressions come from every loaded module package, not just the
	// targets: nonblock must honor a documented //lint:ignore at a callee
	// site two packages away. Malformed and stale suppressions are only
	// reported for target packages, whose suppressions come first.
	var sups []suppression
	for _, lp := range targets {
		for _, f := range lp.files {
			sups = append(sups, collectSuppressions(l.fset, f, report)...)
		}
	}
	nTarget := len(sups)
	for _, lp := range l.pkgs {
		if targetSet[lp.path] {
			continue
		}
		for _, f := range lp.files {
			sups = append(sups, collectSuppressions(l.fset, f, func(Diagnostic) {})...)
		}
	}
	idx := buildSuppressionIndex(sups)

	// Path order, not map order: it fixes the order of dispatch targets,
	// and so which chain a finding reports.
	loaded := make([]*loadedPackage, 0, len(l.pkgs))
	for _, lp := range l.pkgs {
		loaded = append(loaded, lp)
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].path < loaded[j].path })
	graph := buildCallGraph(loaded)
	shared := make(map[string]any)

	for _, lp := range targets {
		for _, terr := range lp.typeErrs {
			report(Diagnostic{Analyzer: "typecheck", Message: terr.Error(), Pos: typeErrPos(terr)})
		}
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer:   a,
				Fset:       l.fset,
				Files:      lp.files,
				Info:       lp.info,
				PkgPath:    lp.path,
				Graph:      graph,
				Shared:     shared,
				report:     report,
				suppressed: idx.covers,
			})
		}
	}

	// Drop suppressed diagnostics ("lint" pseudo-diagnostics are never
	// suppressible).
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "lint" && idx.covers(d.Analyzer, d.Pos) {
			continue
		}
		kept = append(kept, d)
	}

	// A target suppression of an analyzer that ran, yet covered none of
	// its findings, silences nothing.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for i, s := range sups[:nTarget] {
		if ran[s.analyzer] && !idx.used[i] {
			kept = append(kept, Diagnostic{
				Pos:      s.pos,
				Analyzer: "lint",
				Message:  fmt.Sprintf("stale suppression: no %s finding on this line or the next", s.analyzer),
			})
		}
	}
	return sortAndDedupe(kept), nil
}

// sortAndDedupe puts diagnostics in the canonical output order — file,
// line, column, analyzer, message — and collapses identical findings:
// one defect is one finding however many times it was reached, and the
// order must not depend on package iteration or graph traversal order.
func sortAndDedupe(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			prev := out[len(out)-1]
			if d.Pos == prev.Pos && d.Analyzer == prev.Analyzer && d.Message == prev.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// typeErrPos extracts the position from a types.Error (best effort).
func typeErrPos(err error) token.Position {
	if terr, ok := err.(types.Error); ok {
		return terr.Fset.Position(terr.Pos)
	}
	return token.Position{}
}

// expandPatterns maps command-line patterns to module import paths.
// Supported forms: "./..." (every package under the module root), "." or
// a relative/absolute directory (one package), and "<dir>/..." (that
// subtree).
func (l *Loader) expandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		path := l.modPath
		if rel != "" && rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.modRoot, dir)
		}
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: pattern %q is outside the module", pat)
		}
		if !recursive {
			if !hasGoFiles(dir) {
				return nil, fmt.Errorf("lint: no Go files in %s", dir)
			}
			add(rel)
			continue
		}
		err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				r, err := filepath.Rel(l.modRoot, p)
				if err != nil {
					return err
				}
				add(r)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walk %s: %w", dir, err)
		}
	}
	sort.Strings(out)
	return out, nil
}

// hasGoFiles reports whether dir directly contains non-test Go sources.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
