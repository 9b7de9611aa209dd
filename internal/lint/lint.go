// Package lint is sysproflint: a standard-library-only static-analysis
// suite that enforces SysProf's hot-path contracts. The reproduction's
// overhead story rests on properties that ordinary tests cannot see — the
// kprof emit and publish enqueue paths must not block, the emit fast path
// must not allocate, and fields accessed through sync/atomic (the shared
// frame's reference count) must never also be touched plainly. Like the
// eBPF verifier proving tracing programs safe before they load,
// sysproflint proves these properties statically, before the code runs.
//
// The driver (driver.go) parses and type-checks every package of the
// module using only go/parser, go/ast, go/token and go/types — no
// golang.org/x/tools — resolving module-local imports by mapping import
// paths onto the module directory tree and standard-library imports
// through the stdlib source importer. From the loaded packages it builds
// one module-wide static call graph (callgraph.go): direct calls and
// concrete-receiver method calls resolve to exactly one callee, calls
// through module-defined interfaces resolve to the module-local
// implementations actually converted to the interface (typeset.go), and
// single-assignment function values resolve to their one value. A
// property violated three packages away from its annotation is reported
// with the full call chain as evidence.
//
// # Annotations
//
// Two directive comments mark hot-path contracts on function declarations:
//
//	//sysprof:nonblocking   the function (and everything it calls,
//	                        across every module package) must not block:
//	                        no selectless channel sends, time.Sleep, net
//	                        or *os.File I/O, fmt printing, log calls, or
//	                        sync.Cond waits
//	//sysprof:noalloc       the function must not heap-allocate: no
//	                        fmt.Sprintf and friends, string
//	                        concatenation and conversions, closures, or
//	                        maps; make results, composite literals and
//	                        address-taken values are accepted only while
//	                        provably stack-local (they are flagged the
//	                        moment they escape via a return, a stored
//	                        pointer, an interface conversion, or a call
//	                        to a callee the analyzer cannot see through)
//
// # Suppressions
//
// An intentional violation is silenced — with a mandatory reason — by a
// comment on the flagged line or the line above it:
//
//	//lint:ignore <analyzer> <reason>
//
// A suppression without a reason, one naming no analyzer, and one that
// silenced no finding of its analyzer in a run over its file are
// themselves diagnostics.
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sysprof/internal/diag"
)

// Diagnostic and ChainFrame live in the leaf package diag, which the
// E-Code verifier shares without importing the analyzers.
type (
	Diagnostic = diag.Diagnostic
	ChainFrame = diag.ChainFrame
)

// Analyzer is one named check, run once per target package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package through the pass.
	Run func(*Pass)
}

// Pass hands an analyzer one type-checked package plus the module call
// graph and reporting/suppression hooks.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info
	// PkgPath is the package's import path within the module.
	PkgPath string
	// Graph is the module-wide call graph covering this package and
	// every module package it (transitively) imports.
	Graph *CallGraph
	// Shared is a run-scoped scratch map: an analyzer that memoizes
	// cross-package state (nonblock's per-function verdicts) stores it
	// here so later packages in the same run reuse it.
	Shared map[string]any

	// report records a diagnostic (suppressions are applied by the
	// driver after all analyzers ran).
	report func(d Diagnostic)
	// suppressed reports whether a //lint:ignore comment covers the
	// position for this pass's analyzer. Analyzers that propagate
	// findings across functions (nonblock) consult it so a suppressed
	// callee site does not taint its callers.
	suppressed func(analyzer string, pos token.Position) bool
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportChain records a diagnostic at pos carrying an evidence chain.
func (p *Pass) ReportChain(pos token.Pos, chain []ChainFrame, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// ExprString renders an expression compactly ("s.mu", "h.dispatch[t]")
// for use in messages.
func (p *Pass) ExprString(e ast.Expr) string {
	var sb strings.Builder
	printer.Fprint(&sb, p.Fset, e)
	return sb.String()
}

// All returns the full sysproflint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		NonBlock,
		HotAlloc,
		AtomicMix,
	}
}

// ByName resolves a comma-separated analyzer list ("hotalloc,nonblock").
// An empty spec selects the whole suite.
func ByName(spec string) ([]*Analyzer, error) {
	if strings.TrimSpace(spec) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a := byName[name]
		if a == nil {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Annotation names recognized on function declarations.
const (
	AnnotNonBlocking = "sysprof:nonblocking"
	AnnotNoAlloc     = "sysprof:noalloc"
)

// hasAnnotation reports whether the function declaration's doc comment
// carries the directive (written as //sysprof:..., no space, on its own
// line).
func hasAnnotation(fn *ast.FuncDecl, annot string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimPrefix(c.Text, "//") == annot {
			return true
		}
	}
	return false
}

// funcDisplayName names a function for messages ("Hub.Emit", "release").
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
			continue
		case *ast.IndexExpr: // generic receiver
			t = tt.X
			continue
		}
		break
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// when that can be determined statically (named functions, methods with a
// concrete receiver, and interface methods — for interface methods the
// returned func is the interface's). Calls through function-typed
// variables and fields resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (fmt.Sprintf).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleePkgFunc splits a resolved callee into package path and name
// ("time", "Sleep"). Functions without a package (builtins) return "".
func calleePkgFunc(f *types.Func) (pkgPath, name string) {
	if f == nil {
		return "", ""
	}
	if f.Pkg() != nil {
		pkgPath = f.Pkg().Path()
	}
	return pkgPath, f.Name()
}

// inspectShallow walks the node but does not descend into function
// literals: analyzers that reason about one function's behaviour must not
// attribute a closure's body (which runs later, elsewhere) to its
// enclosing function. The closure node itself is still visited.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if !fn(node) {
			return false
		}
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		return true
	})
}
