package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the module-wide static call graph that the analyzers
// share. One graph covers every module package the loader has parsed —
// the lint targets plus everything they import inside the module — so an
// analyzer can follow a call from an annotated function in one package
// into a helper two packages away and report the whole chain.
//
// Edge resolution is deliberately conservative in well-defined ways:
//
//   - direct calls to declared functions and methods on concrete
//     receiver types resolve to exactly one callee (EdgeStatic);
//   - calls through interfaces *defined in the module* resolve by the
//     class hierarchy (EdgeInterface): every module type whose method
//     set implements the interface is a dispatch target, whether or not
//     a value of it is ever converted to the interface — a superset of
//     the real targets, so a finding can be spurious but never missed;
//   - calls through interfaces defined outside the module (io.Writer,
//     net.Conn) are left to the leaf classifiers: the interface method's
//     own package ("net") already identifies blocking surfaces;
//   - calls through function-typed variables resolve to their single
//     target (EdgeFuncValue) when the variable is provably
//     single-assignment: a package-level var or a local, initialized
//     exactly once from a func literal or a reference to a declared
//     function, and never reassigned or address-taken anywhere in the
//     module (`f := handler; f()` follows into handler);
//   - all other calls through function-typed variables and fields add
//     no edge: their target is unknowable without dataflow.
//
// Closure bodies are excluded from a function's edges, matching the
// analyzers' shallow inspection: a closure runs later, elsewhere, and is
// never attributed to its enclosing function.

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call to a declared function or a method
	// call through a concrete receiver type.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a call through a module-defined interface,
	// resolved conservatively to one of its module-local
	// implementations.
	EdgeInterface
	// EdgeFuncValue is a call through a single-assignment function-typed
	// variable, resolved to the one function (or func literal) ever
	// stored in it.
	EdgeFuncValue
)

// how is the edge's marker in findings and evidence chains.
func (k EdgeKind) how() string {
	switch k {
	case EdgeInterface:
		return " (interface dispatch)"
	case EdgeFuncValue:
		return " (through a function value)"
	}
	return ""
}

// CallEdge is one call site inside a function.
type CallEdge struct {
	// Callee is the resolved target node.
	Callee *FuncNode
	// Call is the call expression.
	Call *ast.CallExpr
	// Kind records how the edge was resolved.
	Kind EdgeKind
}

// FuncNode is one declared function or method in the module — or a
// func literal reached through a single-assignment function value, in
// which case Obj and Decl are nil and Lit holds the literal.
type FuncNode struct {
	// Obj is the function's type-checker object (nil for func literals).
	Obj *types.Func
	// Decl is its declaration (Body may be nil for assembly stubs; Decl
	// is nil for func literals).
	Decl *ast.FuncDecl
	// Lit is the func literal for synthetic nodes (nil for declared
	// functions).
	Lit *ast.FuncLit
	// litName names a synthetic literal node for diagnostics, e.g.
	// "func literal bound to handler".
	litName string
	// Info is the type info of the declaring package.
	Info *types.Info
	// PkgPath is the declaring package's import path.
	PkgPath string
	// Edges are the module-internal calls made by the function body, in
	// source order.
	Edges []CallEdge
}

// Body returns the function's body: the declaration's for declared
// functions, the literal's for synthetic func-literal nodes.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// DisplayName renders the function for diagnostics: "Scale" inside its
// own package, "util.Scale" or "pubsub.Broker.Publish" from elsewhere.
func (n *FuncNode) DisplayName(fromPkg string) string {
	if n.Obj == nil {
		return n.litName
	}
	name := n.Obj.Name()
	if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if tn := namedRecvName(sig.Recv().Type()); tn != "" {
			name = tn + "." + name
		}
	}
	if n.PkgPath != fromPkg && n.Obj.Pkg() != nil {
		name = n.Obj.Pkg().Name() + "." + name
	}
	return name
}

// namedRecvName extracts the receiver type's bare name ("Broker").
func namedRecvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
	// byPkg lists each package's declared functions in source order.
	byPkg map[string][]*FuncNode
	// fvTargets maps provably single-assignment function-typed variables
	// to the one node ever stored in them (EdgeFuncValue resolution).
	fvTargets map[*types.Var]*FuncNode
}

// Node resolves a type-checker function object to its graph node (nil
// for functions outside the graph — stdlib, or packages not loaded). A
// method of an instantiated generic type resolves to its declaration.
func (g *CallGraph) Node(f *types.Func) *FuncNode {
	if f == nil {
		return nil
	}
	return g.nodes[f.Origin()]
}

// PkgFuncs returns the declared functions of one package in source
// order.
func (g *CallGraph) PkgFuncs(pkgPath string) []*FuncNode {
	return g.byPkg[pkgPath]
}

// buildCallGraph constructs the graph over the given loaded packages.
func buildCallGraph(pkgs []*loadedPackage) *CallGraph {
	g := &CallGraph{
		nodes: make(map[*types.Func]*FuncNode),
		byPkg: make(map[string][]*FuncNode),
	}
	// Pass 1: register every declared function.
	for _, lp := range pkgs {
		if lp.pkg == nil {
			continue
		}
		for _, file := range lp.files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := lp.info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fn, Info: lp.info, PkgPath: lp.path}
				g.nodes[obj] = node
				g.byPkg[lp.path] = append(g.byPkg[lp.path], node)
			}
		}
	}

	// Concrete named types per package, for interface-call resolution.
	cha := newChaIndex(pkgs)

	// Pass 1.5: single-assignment function values, so pass 2 can follow
	// `f := handler; f()` into handler. Literal targets become synthetic
	// nodes and get edges of their own below.
	litNodes := g.buildFuncValueIndex(pkgs)

	// Pass 2: edges.
	addBodyEdges := func(node *FuncNode) {
		body := node.Body()
		if body == nil {
			return
		}
		inspectShallow(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			g.addEdges(node, call, cha)
			return true
		})
	}
	for _, lp := range pkgs {
		for _, node := range g.byPkg[lp.path] {
			addBodyEdges(node)
		}
	}
	for _, node := range litNodes {
		addBodyEdges(node)
	}
	return g
}

// buildFuncValueIndex finds function-typed variables that are assigned
// exactly once — at their declaration, from a func literal or a
// reference to a declared function — and never reassigned or
// address-taken anywhere in the loaded module. Those calls resolve to a
// single target, so the analyzers can follow them instead of giving up.
// Returns the synthetic nodes created for func literals (they need call
// edges of their own).
func (g *CallGraph) buildFuncValueIndex(pkgs []*loadedPackage) []*FuncNode {
	g.fvTargets = make(map[*types.Var]*FuncNode)
	var lits []*FuncNode

	record := func(lp *loadedPackage, name *ast.Ident, rhs ast.Expr) {
		v, ok := lp.info.Defs[name].(*types.Var)
		if !ok {
			return
		}
		switch e := ast.Unparen(rhs).(type) {
		case *ast.Ident:
			if f, ok := lp.info.Uses[e].(*types.Func); ok && g.Node(f) != nil {
				g.fvTargets[v] = g.Node(f)
			}
		case *ast.SelectorExpr:
			if f, ok := lp.info.Uses[e.Sel].(*types.Func); ok && g.Node(f) != nil {
				g.fvTargets[v] = g.Node(f)
			}
		case *ast.FuncLit:
			node := &FuncNode{
				Lit:     e,
				litName: "func literal bound to " + name.Name,
				Info:    lp.info,
				PkgPath: lp.path,
			}
			g.fvTargets[v] = node
			lits = append(lits, node)
		}
	}

	// Collect candidates: package-level var specs and := defines.
	for _, lp := range pkgs {
		if lp.pkg == nil {
			continue
		}
		for _, file := range lp.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.ValueSpec:
					if len(node.Names) == len(node.Values) {
						for i, name := range node.Names {
							record(lp, name, node.Values[i])
						}
					}
				case *ast.AssignStmt:
					if node.Tok == token.DEFINE && len(node.Lhs) == len(node.Rhs) {
						for i := range node.Lhs {
							if id, ok := node.Lhs[i].(*ast.Ident); ok {
								record(lp, id, node.Rhs[i])
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(g.fvTargets) == 0 {
		return nil
	}

	// Disqualify: any write through a use reference (the declaration
	// writes through Defs, so this catches exactly the *re*assignments)
	// or any address-take, anywhere in the module.
	drop := func(lp *loadedPackage, e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := lp.info.Uses[id].(*types.Var); ok {
				delete(g.fvTargets, v)
			}
		}
	}
	for _, lp := range pkgs {
		if lp.pkg == nil {
			continue
		}
		for _, file := range lp.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range node.Lhs {
						drop(lp, lhs)
					}
				case *ast.UnaryExpr:
					if node.Op == token.AND {
						drop(lp, node.X)
					}
				}
				return true
			})
		}
	}
	return lits
}

// addEdges resolves one call site into edges on the caller node.
func (g *CallGraph) addEdges(caller *FuncNode, call *ast.CallExpr, cha *chaIndex) {
	callee := calleeFunc(caller.Info, call)
	if callee == nil {
		// Conversions and builtins land here too; they never resolve
		// through the function-value index.
		if tgt := g.funcValueTarget(caller.Info, call); tgt != nil {
			caller.Edges = append(caller.Edges, CallEdge{Callee: tgt, Call: call, Kind: EdgeFuncValue})
		}
		return
	}
	if node := g.Node(callee); node != nil {
		caller.Edges = append(caller.Edges, CallEdge{Callee: node, Call: call, Kind: EdgeStatic})
		return
	}
	// Interface method? Resolve module-defined interfaces to their
	// module-local implementations.
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if iface, ok := recv.Underlying().(*types.Interface); ok && moduleInterface(recv, g) {
			for _, impl := range cha.implementations(iface, callee.Name()) {
				if node := g.nodes[impl]; node != nil {
					caller.Edges = append(caller.Edges, CallEdge{Callee: node, Call: call, Kind: EdgeInterface})
				}
			}
		}
	}
}

// funcValueTarget resolves a call through a function-typed variable to
// its unique target when the variable is in the single-assignment
// index. Both bare locals (`f()`) and package-qualified vars
// (`hooks.Handler()`) resolve; struct fields never do — any instance
// could hold a different function.
func (g *CallGraph) funcValueTarget(info *types.Info, call *ast.CallExpr) *FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[fun].(*types.Var); ok {
			return g.fvTargets[v]
		}
	case *ast.SelectorExpr:
		// A selection (x.f) is a field access; only a package-qualified
		// var (pkg.F, no Selections entry) is a plain variable.
		if _, isSel := info.Selections[fun]; isSel {
			return nil
		}
		if v, ok := info.Uses[fun.Sel].(*types.Var); ok {
			return g.fvTargets[v]
		}
	}
	return nil
}

// moduleInterface reports whether the interface's defining package is in
// the graph (i.e. a module package, not stdlib).
func moduleInterface(t types.Type, g *CallGraph) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return false
	}
	_, ok = g.byPkg[pkg.Path()]
	return ok
}

// chaIndex answers "which module methods implement this interface
// method" for interface call resolution, by the class hierarchy alone:
// every module type whose method set satisfies the interface.
type chaIndex struct {
	// concrete types declared in module packages.
	named []*types.Named
	// memo caches per (interface, method) resolution.
	memo map[chaKey][]*types.Func
}

type chaKey struct {
	iface  *types.Interface
	method string
}

func newChaIndex(pkgs []*loadedPackage) *chaIndex {
	idx := &chaIndex{memo: make(map[chaKey][]*types.Func)}
	for _, lp := range pkgs {
		if lp.pkg == nil {
			continue
		}
		scope := lp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			idx.named = append(idx.named, named)
		}
	}
	return idx
}

// implementations returns the concrete module methods that a call to the
// interface method might dispatch to.
func (idx *chaIndex) implementations(iface *types.Interface, method string) []*types.Func {
	key := chaKey{iface, method}
	if impls, ok := idx.memo[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range idx.named {
		// Pointer receiver method sets are supersets; check *T.
		pt := types.NewPointer(named)
		if !types.Implements(pt, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, nil, method)
		if f, ok := obj.(*types.Func); ok {
			impls = append(impls, f)
		}
	}
	idx.memo[key] = impls
	return impls
}

// chainFrameAt builds a ChainFrame for a call edge, rendered from the
// caller's package perspective.
func chainFrameAt(fset *token.FileSet, caller *FuncNode, edge CallEdge) ChainFrame {
	desc := caller.DisplayName(caller.PkgPath) + " calls " + edge.Callee.DisplayName(caller.PkgPath) + edge.Kind.how()
	return ChainFrame{Pos: fset.Position(edge.Call.Pos()), Msg: desc}
}
