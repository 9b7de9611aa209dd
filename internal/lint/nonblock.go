package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NonBlock enforces //sysprof:nonblocking: annotated functions — the
// kprof emit path, LPA callbacks, the pub-sub enqueue path — must not
// perform blocking operations, directly or through any chain of callees
// across the whole module. The traversal follows the shared call graph:
// static calls and concrete method calls, plus conservative interface
// dispatch to module-local implementations. A violation found two
// packages away is reported at the first call hop with the full chain
// attached as evidence.
//
// Blocking operations are: channel sends outside a select that has a
// default case, time.Sleep, any call into package net, file I/O through
// package os, fmt printing (Print/Fprint families, which write to
// streams), any call into package log, and sync.Cond Wait.
var NonBlock = &Analyzer{
	Name: "nonblock",
	Doc:  "//sysprof:nonblocking functions must not call blocking operations (module-wide, transitive)",
	Run:  runNonBlock,
}

// blockSite is one blocking operation found in a function body.
type blockSite struct {
	pos  token.Pos
	what string
}

// fmtPrinting is the set of fmt functions that write to a stream (and so
// can block on it). Sprint-family formatting allocates but does not
// block.
var fmtPrinting = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Scan": true, "Scanf": true, "Scanln": true,
	"Fscan": true, "Fscanf": true, "Fscanln": true,
}

// nbVerdict is the memoized answer to "does this function block", with
// the first blocking path as evidence.
type nbVerdict struct {
	blocks bool
	why    string // composed reason ("calls X, which calls time.Sleep")
	pos    token.Pos
	chain  []ChainFrame
}

// nbState is the cross-package traversal state, shared by every
// package's nonblock pass within one lint run.
type nbState struct {
	fset       *token.FileSet
	suppressed func(analyzer string, pos token.Position) bool
	direct     map[*FuncNode][]blockSite
	memo       map[*FuncNode]*nbVerdict
	visiting   map[*FuncNode]bool
}

// nonblockState fetches (or creates) the run-scoped state.
func nonblockState(pass *Pass) *nbState {
	if st, ok := pass.Shared["nonblock"].(*nbState); ok {
		return st
	}
	st := &nbState{
		fset:       pass.Fset,
		suppressed: pass.suppressed,
		direct:     make(map[*FuncNode][]blockSite),
		memo:       make(map[*FuncNode]*nbVerdict),
		visiting:   make(map[*FuncNode]bool),
	}
	pass.Shared["nonblock"] = st
	return st
}

// directSites computes (and caches) a function's own blocking
// operations, dropping suppressed ones so an intentional, documented
// block in a callee does not taint annotated callers.
func (st *nbState) directSites(node *FuncNode) []blockSite {
	if sites, ok := st.direct[node]; ok {
		return sites
	}
	var kept []blockSite
	if body := node.Body(); body != nil {
		for _, s := range blockingSites(node.Info, body) {
			if !st.suppressed("nonblock", st.fset.Position(s.pos)) {
				kept = append(kept, s)
			}
		}
	}
	st.direct[node] = kept
	return kept
}

// verdict resolves whether node blocks, traversing call edges across
// packages with memoization. Recursion cycles are assumed non-blocking
// on the back edge (any blocking operation inside the cycle is still
// found on the forward edges).
func (st *nbState) verdict(node *FuncNode) *nbVerdict {
	if v, ok := st.memo[node]; ok {
		return v
	}
	if st.visiting[node] {
		return &nbVerdict{}
	}
	st.visiting[node] = true
	defer delete(st.visiting, node)

	v := &nbVerdict{}
	if sites := st.directSites(node); len(sites) > 0 {
		v.blocks = true
		v.why = sites[0].what
		v.pos = sites[0].pos
		v.chain = []ChainFrame{{
			Pos: st.fset.Position(sites[0].pos),
			Msg: node.DisplayName(node.PkgPath) + " " + sites[0].what,
		}}
	} else {
		for _, edge := range node.Edges {
			if edge.Callee == node {
				continue
			}
			cv := st.verdict(edge.Callee)
			if !cv.blocks {
				continue
			}
			// A suppressed call site is a documented hand-off; it does
			// not taint this caller.
			if st.suppressed("nonblock", st.fset.Position(edge.Call.Pos())) {
				continue
			}
			v.blocks = true
			v.why = fmt.Sprintf("calls %s%s, which %s", edge.Callee.DisplayName(node.PkgPath), edge.Kind.how(), cv.why)
			v.pos = edge.Call.Pos()
			v.chain = append([]ChainFrame{chainFrameAt(st.fset, node, edge)}, cv.chain...)
			break
		}
	}
	st.memo[node] = v
	return v
}

func runNonBlock(pass *Pass) {
	st := nonblockState(pass)
	for _, node := range pass.Graph.PkgFuncs(pass.PkgPath) {
		if node.Decl.Body == nil || !hasAnnotation(node.Decl, AnnotNonBlocking) {
			continue
		}
		name := funcDisplayName(node.Decl)
		if sites := st.directSites(node); len(sites) > 0 {
			for _, s := range sites {
				pass.Reportf(s.pos, "%s is //sysprof:nonblocking but %s", name, s.what)
			}
			continue
		}
		if v := st.verdict(node); v.blocks {
			pass.ReportChain(v.pos, v.chain, "%s is //sysprof:nonblocking but %s", name, v.why)
		}
	}
}

// blockingSites scans one function body (not descending into closures)
// for blocking operations.
func blockingSites(info *types.Info, body *ast.BlockStmt) []blockSite {
	var sites []blockSite

	// Channel sends are non-blocking only as a select comm clause when
	// the select has a default case.
	nonBlockingSends := make(map[*ast.SendStmt]bool)
	inspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cl := range sel.Body.List {
			if send, ok := cl.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
				nonBlockingSends[send] = true
			}
		}
		return true
	})

	inspectShallow(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SendStmt:
			if !nonBlockingSends[node] {
				sites = append(sites, blockSite{node.Arrow, "sends on a channel outside a select with default"})
			}
		case *ast.CallExpr:
			if what := blockingCall(info, node); what != "" {
				sites = append(sites, blockSite{node.Pos(), what})
			}
		}
		return true
	})
	return sites
}

// blockingCall classifies a call as a blocking operation ("" if not).
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	callee := calleeFunc(info, call)
	pkg, name := calleePkgFunc(callee)
	switch pkg {
	case "time":
		if name == "Sleep" {
			return "calls time.Sleep"
		}
	case "fmt":
		if fmtPrinting[name] {
			return "calls fmt." + name
		}
	case "log":
		return "calls log." + name
	case "net":
		// Close only marks the fd closed and returns (no linger is ever
		// configured in this module); eviction paths must be able to
		// sever a socket without counting as blocking.
		if name == "Close" {
			return ""
		}
		return "calls net." + name
	case "os":
		return "calls os." + name + " (file I/O)"
	case "sync":
		if name == "Wait" && callee.Type() != nil && isCondMethod(callee) {
			return "calls sync.Cond.Wait"
		}
	}
	return ""
}

// isCondMethod reports whether f is a method of sync.Cond.
func isCondMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Cond" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
