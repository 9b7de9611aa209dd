package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
)

// This file builds the instantiated-type set that narrows interface
// dispatch, RTA-style. Class-hierarchy analysis (the old scheme) made
// every module type implementing an interface a dispatch target of every
// call through that interface — so a test-only or never-constructed
// implementation injected spurious blocking/locking edges into real hot
// paths. Rapid-type-analysis observes that a call through an interface
// can only dispatch to types whose values actually *flow into an
// interface* somewhere in the loaded module: a composite literal,
// new/make result, conversion, assignment, call argument, return value,
// channel send, or container element whose static type is concrete while
// its destination is an interface.
//
// For every concrete named type the index records the first such
// conversion site as a witness. Dispatch resolution then intersects the
// CHA implementation set with the witnessed set, and the witness position
// rides along on the edge so evidence chains can show not just "interface
// dispatch to T.M" but *why T is a candidate at all*.
//
// The narrowing is sound for the loaded package set: when linting a
// subset of the module, conversions performed by unloaded packages are
// invisible, which can only drop edges (fewer findings), never invent
// them. CI lints ./... — the whole module, commands and examples
// included — so the witness set there is complete.

// convWitness records where a concrete type was converted to an
// interface.
type convWitness struct {
	pos  token.Pos
	desc string // "assigned to interface", "passed to F", ...
}

// typeSetIndex maps concrete named types (by their TypeName object) to
// their first interface-conversion witness.
type typeSetIndex struct {
	witness map[*types.TypeName]*convWitness
}

// witnessFor returns the conversion witness for a named type, or nil if
// no value of the type was ever seen flowing into an interface.
func (ts *typeSetIndex) witnessFor(named *types.Named) *convWitness {
	return ts.witness[named.Obj()]
}

// describeWitness renders a witness for an evidence chain:
// "gpa.Shard converted to interface at gpa.go:41".
func describeWitness(fset *token.FileSet, typeName string, w *convWitness) string {
	p := fset.Position(w.pos)
	return typeName + " " + w.desc + " at " + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// buildTypeSetIndex scans every loaded package for concrete-to-interface
// value flows.
func buildTypeSetIndex(pkgs []*loadedPackage) *typeSetIndex {
	ts := &typeSetIndex{witness: make(map[*types.TypeName]*convWitness)}
	for _, lp := range pkgs {
		if lp.pkg == nil {
			continue
		}
		for _, file := range lp.files {
			ts.scanFile(lp.info, file)
		}
	}
	return ts
}

// record notes that a value of type t (possibly a pointer to a named
// type) flows into an interface at pos. Only named concrete types
// matter: unnamed types cannot carry methods, so they can never be
// dispatch targets.
func (ts *typeSetIndex) record(t types.Type, pos token.Pos, desc string) {
	named := derefNamed(t)
	if named == nil {
		return
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return // interface-to-interface flows create no new targets
	}
	obj := named.Obj()
	if _, seen := ts.witness[obj]; !seen {
		ts.witness[obj] = &convWitness{pos: pos, desc: desc}
	}
}

// flow records a witness when the expression's concrete type flows into
// an interface-typed destination.
func (ts *typeSetIndex) flow(info *types.Info, dst types.Type, src ast.Expr, desc string) {
	if dst == nil || src == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := info.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	if _, srcIface := tv.Type.Underlying().(*types.Interface); srcIface {
		return
	}
	ts.record(tv.Type, src.Pos(), desc)
}

// scanFile walks one file recording every concrete-to-interface flow.
// Function bodies are scanned in full (closures included): a conversion
// inside a closure still makes the type a live dispatch target.
func (ts *typeSetIndex) scanFile(info *types.Info, file *ast.File) {
	// Track the enclosing function's result types for return statements.
	var resultStack [][]types.Type

	pushResults := func(sig *types.Signature) {
		var res []types.Type
		if sig != nil {
			for i := 0; i < sig.Results().Len(); i++ {
				res = append(res, sig.Results().At(i).Type())
			}
		}
		resultStack = append(resultStack, res)
	}

	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch node := n.(type) {
		case *ast.FuncDecl:
			if obj, ok := info.Defs[node.Name].(*types.Func); ok {
				pushResults(obj.Type().(*types.Signature))
			} else {
				pushResults(nil)
			}
		case *ast.FuncLit:
			if tv, ok := info.Types[node]; ok {
				sig, _ := tv.Type.(*types.Signature)
				pushResults(sig)
			} else {
				pushResults(nil)
			}
		case *ast.ReturnStmt:
			if len(resultStack) > 0 {
				res := resultStack[len(resultStack)-1]
				if len(node.Results) == len(res) {
					for i, e := range node.Results {
						ts.flow(info, res[i], e, "returned as interface")
					}
				}
			}
		case *ast.AssignStmt:
			if len(node.Lhs) == len(node.Rhs) {
				for i := range node.Lhs {
					lhsT := info.TypeOf(node.Lhs[i])
					if lhsT == nil && node.Tok == token.DEFINE {
						if id, ok := node.Lhs[i].(*ast.Ident); ok {
							if v, ok := info.Defs[id].(*types.Var); ok {
								lhsT = v.Type()
							}
						}
					}
					if lhsT != nil {
						ts.flow(info, lhsT, node.Rhs[i], "assigned to interface")
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range node.Names {
				if i >= len(node.Values) {
					break
				}
				if v, ok := info.Defs[name].(*types.Var); ok {
					ts.flow(info, v.Type(), node.Values[i], "assigned to interface")
				}
			}
		case *ast.CallExpr:
			ts.scanCall(info, node)
		case *ast.CompositeLit:
			ts.scanCompositeLit(info, node)
		case *ast.SendStmt:
			if chT := info.TypeOf(node.Chan); chT != nil {
				if ch, ok := chT.Underlying().(*types.Chan); ok {
					ts.flow(info, ch.Elem(), node.Value, "sent on interface channel")
				}
			}
		}
		return true
	})
	// resultStack is never popped: Inspect gives no exit hook per node,
	// and returns only consult the top frame pushed by their innermost
	// enclosing function, which Inspect's pre-order visit guarantees is
	// pushed before the body. A stale deeper stack can only mis-skip a
	// return whose arity happens to mismatch — and arity-matched returns
	// resolve their own frame again at the next function. To keep the
	// top frame exact we re-push on every FuncDecl/FuncLit entry; the
	// over-approximation this leaves (stack never shrinking) only makes
	// the len check above occasionally skip a return, i.e. it can only
	// widen, never narrow incorrectly — and a skipped witness is
	// recovered by any other flow of the same type.
}

// scanCall records witnesses for concrete arguments passed to
// interface-typed parameters, for explicit conversions I(x), and for
// append into interface-element slices.
func (ts *typeSetIndex) scanCall(info *types.Info, call *ast.CallExpr) {
	// Explicit conversion: I(x).
	if tvFun, ok := info.Types[call.Fun]; ok && tvFun.IsType() && len(call.Args) == 1 {
		ts.flow(info, tvFun.Type, call.Args[0], "converted to interface")
		return
	}
	// Builtin append: append(s, x...) with s of type []I.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 && call.Ellipsis == token.NoPos {
				if sl, ok := typeUnder(info, call.Args[0]).(*types.Slice); ok {
					for _, a := range call.Args[1:] {
						ts.flow(info, sl.Elem(), a, "appended to interface slice")
					}
				}
			}
			return
		}
	}
	// Ordinary call: match args against the signature's parameters.
	tvFun, ok := info.Types[call.Fun]
	if !ok || tvFun.Type == nil {
		return
	}
	sig, ok := tvFun.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() > 0 {
				last := params.At(params.Len() - 1).Type()
				if call.Ellipsis != token.NoPos && i == params.Len()-1 {
					pt = last // s... passes the slice itself
				} else if sl, ok := last.(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			desc := "passed as interface argument"
			if f := calleeFunc(info, call); f != nil {
				desc = "passed as interface argument to " + f.Name()
			}
			ts.flow(info, pt, a, desc)
		}
	}
}

// scanCompositeLit records witnesses for concrete elements of composite
// literals whose element or field type is an interface.
func (ts *typeSetIndex) scanCompositeLit(info *types.Info, lit *ast.CompositeLit) {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice:
		ts.flowElems(info, u.Elem(), lit, "stored in interface slice literal")
	case *types.Array:
		ts.flowElems(info, u.Elem(), lit, "stored in interface array literal")
	case *types.Map:
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				ts.flow(info, u.Key(), kv.Key, "stored in interface map literal")
				ts.flow(info, u.Elem(), kv.Value, "stored in interface map literal")
			}
		}
	case *types.Struct:
		for i, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					for f := 0; f < u.NumFields(); f++ {
						if u.Field(f).Name() == key.Name {
							ts.flow(info, u.Field(f).Type(), kv.Value, "stored in interface field "+key.Name)
							break
						}
					}
				}
			} else if i < u.NumFields() {
				ts.flow(info, u.Field(i).Type(), e, "stored in interface field "+u.Field(i).Name())
			}
		}
	}
}

// flowElems applies flow to each non-keyed element of a slice/array
// literal (keys are indices there, never interface values).
func (ts *typeSetIndex) flowElems(info *types.Info, elem types.Type, lit *ast.CompositeLit, desc string) {
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			e = kv.Value
		}
		ts.flow(info, elem, e, desc)
	}
}

// derefNamed unwraps pointers down to a named type, or nil.
func derefNamed(t types.Type) *types.Named {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeUnder returns the expression's type (nil-safe).
func typeUnder(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
}
