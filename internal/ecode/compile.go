package ecode

// compile.go lowers a verified E-Code program to specialized Go
// closures — the paper's "run-time code generation" step. Verification
// is what makes the lowering fast:
//
//   - Full static typing lets every variable live in a typed slot array
//     (int64/float64/bool/string/Record) indexed at compile time, so
//     the hot path never touches a map or boxes an intermediate value
//     the way the tree-walking interpreter does.
//   - The termination proof removes the interpreter's per-statement
//     step counter entirely: a verified loop needs no runtime guard.
//   - Builtins resolve to slot indices at compile time, and each call
//     site reuses a preallocated argument buffer.
//
// Only verified programs can be compiled (CompileVerified runs the
// verifier first); the interpreter (interp_test.go) is the reference
// semantics, and the differential tests and the fuzz harness cross-check
// the two.

import (
	"fmt"
	"sort"
)

// Compiled is a verified E-Code program lowered to closures. It is
// immutable and shareable: each NewInstance gets private state.
type Compiled struct {
	name string
	cost int

	body []cstmt

	// Slot-space sizes per type (statics first, then locals).
	nInt, nFloat, nBool, nStr, nRec int
	nSInit                          int
	argBufSizes                     []int

	statics  map[string]slotRef
	bindings map[string]int // record binding name -> recs slot
	builtins []string       // builtin slot -> name
}

// Name returns the analyzer name the program was verified under.
func (c *Compiled) Name() string { return c.name }

// Cost returns the verifier's worst-case per-event step estimate.
func (c *Compiled) Cost() int { return c.cost }

// CompileVerified verifies p against env and, when it passes, lowers it
// to specialized closures. The verdict is always returned for
// inspection; on rejection the error carries the rendered evidence
// chains and the Compiled is nil.
func (p *Program) CompileVerified(env VerifyEnv) (*Compiled, *Verdict, error) {
	v := p.Verify(env)
	if !v.OK {
		return nil, v, fmt.Errorf("ecode: %s: %w", env.name(), v.Err())
	}
	c := &Compiled{
		name:     env.name(),
		cost:     v.Cost,
		statics:  map[string]slotRef{},
		bindings: map[string]int{},
	}
	cp := &compiler{
		c:       c,
		env:     env,
		sigs:    env.sigs(),
		statics: map[string]Type{},
		binfo:   map[string]int{},
	}
	// Record bindings occupy the first recs slots, in sorted order so
	// compilation is deterministic.
	names := make([]string, 0, len(env.Records))
	for n := range env.Records {
		names = append(names, n)
	}
	sort.Strings(names)
	root := &cscope{vars: map[string]slotRef{}}
	for _, n := range names {
		ref := slotRef{t: TRecord, idx: c.nRec}
		c.nRec++
		root.vars[n] = ref
		c.bindings[n] = ref.idx
	}
	cp.sc = &cscope{vars: map[string]slotRef{}, parent: root}
	body, err := cp.compileBlock(p.body)
	if err != nil {
		return nil, v, err
	}
	c.body = body
	return c, v, nil
}

// CompiledInstance is a compiled program plus its private persistent
// state. It is not safe for concurrent Run calls.
type CompiledInstance struct {
	c *Compiled
	m cmachine
}

// NewInstance binds the program to its builtins (defaults merged with
// extra) and allocates fresh static state. Every builtin the program
// calls must be present.
func (c *Compiled) NewInstance(extra map[string]Builtin) (*CompiledInstance, error) {
	impls := defaultBuiltins()
	for k, v := range extra {
		impls[k] = v
	}
	bound := make([]Builtin, len(c.builtins))
	for i, name := range c.builtins {
		fn, ok := impls[name]
		if !ok {
			return nil, fmt.Errorf("ecode: %s: no implementation for builtin %q", c.name, name)
		}
		bound[i] = fn
	}
	ci := &CompiledInstance{c: c}
	ci.m = cmachine{
		ints:     make([]int64, c.nInt),
		floats:   make([]float64, c.nFloat),
		bools:    make([]bool, c.nBool),
		strs:     make([]string, c.nStr),
		recs:     make([]Record, c.nRec),
		sinit:    make([]bool, c.nSInit),
		argbufs:  make([][]Value, len(c.argBufSizes)),
		builtins: bound,
	}
	for i, n := range c.argBufSizes {
		ci.m.argbufs[i] = make([]Value, n)
	}
	return ci, nil
}

// Run executes the program against the host bindings (every record
// named in the verify env must be present). It returns the value of the
// first executed return statement, or nil if execution falls off the
// end; there is no step limit because termination is proven.
func (ci *CompiledInstance) Run(bindings map[string]Value) (Value, error) {
	m := &ci.m
	m.ret = nil
	for name, idx := range ci.c.bindings {
		v, ok := bindings[name]
		if !ok {
			return nil, fmt.Errorf("ecode: %s: missing binding %q", ci.c.name, name)
		}
		rec, ok := v.(Record)
		if !ok {
			return nil, fmt.Errorf("ecode: %s: binding %q is %T, not a Record", ci.c.name, name, v)
		}
		m.recs[idx] = rec
	}
	if _, err := execSeq(m, ci.c.body); err != nil {
		return nil, err
	}
	return m.ret, nil
}

// Static returns a persistent variable's value (absent until its
// declaration first executes).
func (ci *CompiledInstance) Static(name string) (Value, bool) {
	ref, ok := ci.c.statics[name]
	if !ok || !ci.m.sinit[ref.sinit] {
		return nil, false
	}
	switch ref.t {
	case TInt:
		return ci.m.ints[ref.idx], true
	case TFloat:
		return ci.m.floats[ref.idx], true
	case TBool:
		return ci.m.bools[ref.idx], true
	case TString:
		return ci.m.strs[ref.idx], true
	}
	return nil, false
}

// cmachine is one instance's mutable execution state: typed slot arrays
// (statics persist across runs; locals are always written before read,
// so they need no reset), the static init guards, per-call-site
// argument buffers, and the bound builtins.
type cmachine struct {
	ints     []int64
	floats   []float64
	bools    []bool
	strs     []string
	recs     []Record
	sinit    []bool
	argbufs  [][]Value
	builtins []Builtin
	ret      Value
}

// Closure kinds. Typed expression closures avoid interface boxing for
// every intermediate value on the hot path.
type (
	cstmt  func(*cmachine) (ctrl, error)
	cInt   func(*cmachine) (int64, error)
	cFloat func(*cmachine) (float64, error)
	cBool  func(*cmachine) (bool, error)
	cStr   func(*cmachine) (string, error)
	cVal   func(*cmachine) (Value, error)
)

func execSeq(m *cmachine, seq []cstmt) (ctrl, error) {
	for _, s := range seq {
		c, err := s(m)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

// slotRef locates a variable in the typed slot arrays.
type slotRef struct {
	t     Type
	idx   int
	sinit int // static init-guard index; -1 for locals
}

type cscope struct {
	vars   map[string]slotRef
	parent *cscope
}

func (s *cscope) lookup(name string) (slotRef, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if r, ok := cur.vars[name]; ok {
			return r, true
		}
	}
	return slotRef{}, false
}

type compiler struct {
	c       *Compiled
	env     VerifyEnv
	sigs    map[string]BuiltinSig
	sc      *cscope
	statics map[string]Type
	binfo   map[string]int
}

func (cp *compiler) alloc(t Type) int {
	switch t {
	case TInt:
		cp.c.nInt++
		return cp.c.nInt - 1
	case TFloat:
		cp.c.nFloat++
		return cp.c.nFloat - 1
	case TBool:
		cp.c.nBool++
		return cp.c.nBool - 1
	case TString:
		cp.c.nStr++
		return cp.c.nStr - 1
	case TRecord:
		cp.c.nRec++
		return cp.c.nRec - 1
	}
	return -1
}

func (cp *compiler) builtinSlot(name string) int {
	if i, ok := cp.binfo[name]; ok {
		return i
	}
	i := len(cp.c.builtins)
	cp.c.builtins = append(cp.c.builtins, name)
	cp.binfo[name] = i
	return i
}

func (cp *compiler) internal(line int, format string, args ...any) error {
	return fmt.Errorf("ecode: internal: line %d: "+format, append([]any{line}, args...)...)
}

// resolve finds a variable the way the interpreter does: scope chain
// (including bindings at the root), then statics.
func (cp *compiler) resolve(name string) (slotRef, bool) {
	if r, ok := cp.sc.lookup(name); ok {
		return r, true
	}
	r, ok := cp.c.statics[name]
	return r, ok
}

// typeOf re-derives an expression's static type from compiler scope;
// the program already verified, so this cannot fail in a way typecheck
// would have reported.
func (cp *compiler) typeOf(e expr) Type {
	switch n := e.(type) {
	case *intLit:
		return TInt
	case *floatLit:
		return TFloat
	case *boolLit:
		return TBool
	case *stringLit:
		return TString
	case *identExpr:
		if r, ok := cp.resolve(n.name); ok {
			return r.t
		}
	case *fieldExpr:
		if id, ok := n.recv.(*identExpr); ok {
			return cp.env.Records[id.name][n.field]
		}
	case *callExpr:
		sig, ok := cp.sigs[n.name]
		if !ok {
			return TInvalid
		}
		switch sig.Result {
		case RInt:
			return TInt
		case RFloat:
			return TFloat
		case RBool:
			return TBool
		case RString:
			return TString
		case RArg0:
			if len(n.args) > 0 {
				return cp.typeOf(n.args[0])
			}
		}
	case *unaryExpr:
		if n.op == "!" {
			return TBool
		}
		return cp.typeOf(n.x)
	case *binaryExpr:
		switch n.op {
		case "&&", "||", "==", "!=", "<", "<=", ">", ">=":
			return TBool
		}
		lt, rt := cp.typeOf(n.l), cp.typeOf(n.r)
		if lt == TString {
			return TString
		}
		if lt == TInt && rt == TInt {
			return TInt
		}
		return TFloat
	}
	return TInvalid
}

func (cp *compiler) compileBlock(stmts []stmt) ([]cstmt, error) {
	out := make([]cstmt, 0, len(stmts))
	for _, s := range stmts {
		cs, err := cp.compileStmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

func (cp *compiler) compileStmt(s stmt) (cstmt, error) {
	switch n := s.(type) {
	case *declStmt:
		return cp.compileDecl(n)
	case *assignStmt:
		return cp.compileAssign(n)
	case *ifStmt:
		cond, err := cp.compileBool(n.cond)
		if err != nil {
			return nil, err
		}
		cp.sc = &cscope{vars: map[string]slotRef{}, parent: cp.sc}
		then, err := cp.compileBlock(n.then)
		if err != nil {
			return nil, err
		}
		cp.sc.vars = map[string]slotRef{}
		els, err := cp.compileBlock(n.els)
		cp.sc = cp.sc.parent
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			b, err := cond(m)
			if err != nil {
				return ctrlNone, err
			}
			if b {
				return execSeq(m, then)
			}
			return execSeq(m, els)
		}, nil

	case *forStmt:
		cp.sc = &cscope{vars: map[string]slotRef{}, parent: cp.sc}
		defer func() { cp.sc = cp.sc.parent }()
		var init, post cstmt
		var cond cBool
		var err error
		if n.init != nil {
			if init, err = cp.compileStmt(n.init); err != nil {
				return nil, err
			}
		}
		if n.cond != nil {
			if cond, err = cp.compileBool(n.cond); err != nil {
				return nil, err
			}
		}
		body, err := cp.compileBlock(n.body)
		if err != nil {
			return nil, err
		}
		if n.post != nil {
			if post, err = cp.compileStmt(n.post); err != nil {
				return nil, err
			}
		}
		return func(m *cmachine) (ctrl, error) {
			if init != nil {
				if _, err := init(m); err != nil {
					return ctrlNone, err
				}
			}
			for {
				if cond != nil {
					ok, err := cond(m)
					if err != nil {
						return ctrlNone, err
					}
					if !ok {
						break
					}
				}
				c, err := execSeq(m, body)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlReturn {
					return c, nil
				}
				if c == ctrlBreak {
					break
				}
				if post != nil {
					if _, err := post(m); err != nil {
						return ctrlNone, err
					}
				}
			}
			return ctrlNone, nil
		}, nil

	case *returnStmt:
		if n.val == nil {
			return func(m *cmachine) (ctrl, error) { return ctrlReturn, nil }, nil
		}
		v, err := cp.compileVal(n.val)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			rv, err := v(m)
			if err != nil {
				return ctrlNone, err
			}
			m.ret = rv
			return ctrlReturn, nil
		}, nil

	case *exprStmt:
		// A discarded call result is not type-asserted (the interpreter
		// never looks at it either), so compile calls directly instead
		// of through a typed path.
		var f cVal
		var err error
		if call, ok := n.e.(*callExpr); ok {
			f, err = cp.compileCall(call)
		} else {
			f, err = cp.compileVal(n.e)
		}
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) { _, err := f(m); return ctrlNone, err }, nil

	case *breakStmt:
		return func(m *cmachine) (ctrl, error) { return ctrlBreak, nil }, nil
	case *continueStmt:
		return func(m *cmachine) (ctrl, error) { return ctrlContinue, nil }, nil
	}
	return nil, fmt.Errorf("ecode: internal: unknown statement %T", s)
}

func (cp *compiler) compileDecl(n *declStmt) (cstmt, error) {
	t := typeFromName(n.typ)
	var ref slotRef
	if n.static {
		var ok bool
		if ref, ok = cp.c.statics[n.name]; !ok {
			ref = slotRef{t: t, idx: cp.alloc(t), sinit: cp.c.nSInit}
			cp.c.nSInit++
			cp.c.statics[n.name] = ref
		}
	} else {
		ref = slotRef{t: t, idx: cp.alloc(t), sinit: -1}
		cp.sc.vars[n.name] = ref
	}
	store, err := cp.compileStore(ref, n.init, n.line)
	if err != nil {
		return nil, err
	}
	if !n.static {
		return store, nil
	}
	guard := ref.sinit
	return func(m *cmachine) (ctrl, error) {
		if m.sinit[guard] {
			return ctrlNone, nil
		}
		m.sinit[guard] = true
		return store(m)
	}, nil
}

// compileStore builds the "evaluate init (or zero) and write the slot"
// statement for a declaration, applying the interpreter's int<->float
// init coercion.
func (cp *compiler) compileStore(ref slotRef, init expr, line int) (cstmt, error) {
	idx := ref.idx
	switch ref.t {
	case TInt:
		if init == nil {
			return func(m *cmachine) (ctrl, error) { m.ints[idx] = 0; return ctrlNone, nil }, nil
		}
		if cp.typeOf(init) == TFloat {
			f, err := cp.compileFloat(init)
			if err != nil {
				return nil, err
			}
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.ints[idx] = int64(v)
				return ctrlNone, err
			}, nil
		}
		f, err := cp.compileInt(init)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			v, err := f(m)
			m.ints[idx] = v
			return ctrlNone, err
		}, nil
	case TFloat:
		if init == nil {
			return func(m *cmachine) (ctrl, error) { m.floats[idx] = 0; return ctrlNone, nil }, nil
		}
		f, err := cp.compileFloat(init) // promotes int inits
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			v, err := f(m)
			m.floats[idx] = v
			return ctrlNone, err
		}, nil
	case TBool:
		if init == nil {
			return func(m *cmachine) (ctrl, error) { m.bools[idx] = false; return ctrlNone, nil }, nil
		}
		f, err := cp.compileBool(init)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			v, err := f(m)
			m.bools[idx] = v
			return ctrlNone, err
		}, nil
	case TString:
		if init == nil {
			return func(m *cmachine) (ctrl, error) { m.strs[idx] = ""; return ctrlNone, nil }, nil
		}
		f, err := cp.compileStr(init)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			v, err := f(m)
			m.strs[idx] = v
			return ctrlNone, err
		}, nil
	}
	return nil, cp.internal(line, "declaration of %s", ref.t)
}

func (cp *compiler) compileAssign(n *assignStmt) (cstmt, error) {
	ref, ok := cp.resolve(n.name)
	if !ok {
		return nil, cp.internal(n.line, "assignment to unresolved %q", n.name)
	}
	idx := ref.idx
	line := n.line
	switch ref.t {
	case TInt:
		f, err := cp.compileInt(n.val)
		if err != nil {
			return nil, err
		}
		switch n.op {
		case "=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.ints[idx] = v
				return ctrlNone, err
			}, nil
		case "+=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.ints[idx] += v
				return ctrlNone, err
			}, nil
		case "-=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.ints[idx] -= v
				return ctrlNone, err
			}, nil
		case "*=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.ints[idx] *= v
				return ctrlNone, err
			}, nil
		case "/=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				if err != nil {
					return ctrlNone, err
				}
				if v == 0 {
					return ctrlNone, rtErr(line, "integer division by zero")
				}
				m.ints[idx] /= v
				return ctrlNone, nil
			}, nil
		}
	case TFloat:
		f, err := cp.compileFloat(n.val)
		if err != nil {
			return nil, err
		}
		switch n.op {
		case "=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.floats[idx] = v
				return ctrlNone, err
			}, nil
		case "+=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.floats[idx] += v
				return ctrlNone, err
			}, nil
		case "-=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.floats[idx] -= v
				return ctrlNone, err
			}, nil
		case "*=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.floats[idx] *= v
				return ctrlNone, err
			}, nil
		case "/=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				if err != nil {
					return ctrlNone, err
				}
				if v == 0 {
					return ctrlNone, rtErr(line, "division by zero")
				}
				m.floats[idx] /= v
				return ctrlNone, nil
			}, nil
		}
	case TBool:
		if n.op == "=" {
			f, err := cp.compileBool(n.val)
			if err != nil {
				return nil, err
			}
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.bools[idx] = v
				return ctrlNone, err
			}, nil
		}
	case TString:
		f, err := cp.compileStr(n.val)
		if err != nil {
			return nil, err
		}
		switch n.op {
		case "=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.strs[idx] = v
				return ctrlNone, err
			}, nil
		case "+=":
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.strs[idx] += v
				return ctrlNone, err
			}, nil
		}
	}
	return nil, cp.internal(n.line, "assignment %s %s", ref.t, n.op)
}

// compileField builds the generic record-field load.
func (cp *compiler) compileField(n *fieldExpr) (cVal, error) {
	id, ok := n.recv.(*identExpr)
	if !ok {
		return nil, cp.internal(n.line, "field access on non-identifier")
	}
	ref, ok := cp.resolve(id.name)
	if !ok || ref.t != TRecord {
		return nil, cp.internal(n.line, "field access on %q", id.name)
	}
	idx, field, line := ref.idx, n.field, n.line
	return func(m *cmachine) (Value, error) {
		v, ok := m.recs[idx].Field(field)
		if !ok {
			return nil, rtErr(line, "record has no field %q", field)
		}
		return v, nil
	}, nil
}

func (cp *compiler) compileCall(n *callExpr) (cVal, error) {
	slot := cp.builtinSlot(n.name)
	argFns := make([]cVal, len(n.args))
	for i, a := range n.args {
		f, err := cp.compileVal(a)
		if err != nil {
			return nil, err
		}
		argFns[i] = f
	}
	bufIdx := len(cp.c.argBufSizes)
	cp.c.argBufSizes = append(cp.c.argBufSizes, len(n.args))
	name, line := n.name, n.line
	return func(m *cmachine) (Value, error) {
		buf := m.argbufs[bufIdx]
		for i, f := range argFns {
			v, err := f(m)
			if err != nil {
				return nil, err
			}
			buf[i] = v
		}
		v, err := m.builtins[slot](buf)
		if err != nil {
			return nil, rtErr(line, "%s: %v", name, err)
		}
		return v, nil
	}, nil
}

func (cp *compiler) compileInt(e expr) (cInt, error) {
	switch n := e.(type) {
	case *intLit:
		v := n.v
		return func(*cmachine) (int64, error) { return v, nil }, nil
	case *identExpr:
		ref, ok := cp.resolve(n.name)
		if !ok || ref.t != TInt {
			return nil, cp.internal(n.line, "int read of %q", n.name)
		}
		idx := ref.idx
		return func(m *cmachine) (int64, error) { return m.ints[idx], nil }, nil
	case *fieldExpr:
		f, err := cp.compileField(n)
		if err != nil {
			return nil, err
		}
		line, field := n.line, n.field
		return func(m *cmachine) (int64, error) {
			v, err := f(m)
			if err != nil {
				return 0, err
			}
			i, ok := v.(int64)
			if !ok {
				return 0, rtErr(line, "field %q is %T, schema says int", field, v)
			}
			return i, nil
		}, nil
	case *callExpr:
		f, err := cp.compileCall(n)
		if err != nil {
			return nil, err
		}
		line, name := n.line, n.name
		return func(m *cmachine) (int64, error) {
			v, err := f(m)
			if err != nil {
				return 0, err
			}
			i, ok := v.(int64)
			if !ok {
				return 0, rtErr(line, "%s returned %T, want int", name, v)
			}
			return i, nil
		}, nil
	case *unaryExpr:
		if n.op != "-" {
			return nil, cp.internal(n.line, "int unary %q", n.op)
		}
		f, err := cp.compileInt(n.x)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (int64, error) {
			v, err := f(m)
			return -v, err
		}, nil
	case *binaryExpr:
		l, err := cp.compileInt(n.l)
		if err != nil {
			return nil, err
		}
		r, err := cp.compileInt(n.r)
		if err != nil {
			return nil, err
		}
		line := n.line
		switch n.op {
		case "+":
			return func(m *cmachine) (int64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				return lv + rv, err
			}, nil
		case "-":
			return func(m *cmachine) (int64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				return lv - rv, err
			}, nil
		case "*":
			return func(m *cmachine) (int64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				return lv * rv, err
			}, nil
		case "/":
			return func(m *cmachine) (int64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				if err != nil {
					return 0, err
				}
				if rv == 0 {
					return 0, rtErr(line, "integer division by zero")
				}
				return lv / rv, nil
			}, nil
		case "%":
			return func(m *cmachine) (int64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				if err != nil {
					return 0, err
				}
				if rv == 0 {
					return 0, rtErr(line, "integer modulo by zero")
				}
				return lv % rv, nil
			}, nil
		}
		return nil, cp.internal(n.line, "int binary %q", n.op)
	}
	return nil, fmt.Errorf("ecode: internal: int expression %T", e)
}

func (cp *compiler) compileFloat(e expr) (cFloat, error) {
	// Ints promote to float wherever a float is expected, exactly like
	// evalBinary's mixed-operand rule.
	if cp.typeOf(e) == TInt {
		f, err := cp.compileInt(e)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (float64, error) {
			v, err := f(m)
			return float64(v), err
		}, nil
	}
	switch n := e.(type) {
	case *floatLit:
		v := n.v
		return func(*cmachine) (float64, error) { return v, nil }, nil
	case *identExpr:
		ref, ok := cp.resolve(n.name)
		if !ok || ref.t != TFloat {
			return nil, cp.internal(n.line, "float read of %q", n.name)
		}
		idx := ref.idx
		return func(m *cmachine) (float64, error) { return m.floats[idx], nil }, nil
	case *fieldExpr:
		f, err := cp.compileField(n)
		if err != nil {
			return nil, err
		}
		line, field := n.line, n.field
		return func(m *cmachine) (float64, error) {
			v, err := f(m)
			if err != nil {
				return 0, err
			}
			x, ok := v.(float64)
			if !ok {
				return 0, rtErr(line, "field %q is %T, schema says float", field, v)
			}
			return x, nil
		}, nil
	case *callExpr:
		f, err := cp.compileCall(n)
		if err != nil {
			return nil, err
		}
		line, name := n.line, n.name
		return func(m *cmachine) (float64, error) {
			v, err := f(m)
			if err != nil {
				return 0, err
			}
			x, ok := v.(float64)
			if !ok {
				return 0, rtErr(line, "%s returned %T, want float", name, v)
			}
			return x, nil
		}, nil
	case *unaryExpr:
		if n.op != "-" {
			return nil, cp.internal(n.line, "float unary %q", n.op)
		}
		f, err := cp.compileFloat(n.x)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (float64, error) {
			v, err := f(m)
			return -v, err
		}, nil
	case *binaryExpr:
		l, err := cp.compileFloat(n.l)
		if err != nil {
			return nil, err
		}
		r, err := cp.compileFloat(n.r)
		if err != nil {
			return nil, err
		}
		line := n.line
		switch n.op {
		case "+":
			return func(m *cmachine) (float64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				return lv + rv, err
			}, nil
		case "-":
			return func(m *cmachine) (float64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				return lv - rv, err
			}, nil
		case "*":
			return func(m *cmachine) (float64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				return lv * rv, err
			}, nil
		case "/":
			return func(m *cmachine) (float64, error) {
				lv, err := l(m)
				if err != nil {
					return 0, err
				}
				rv, err := r(m)
				if err != nil {
					return 0, err
				}
				if rv == 0 {
					return 0, rtErr(line, "division by zero")
				}
				return lv / rv, nil
			}, nil
		}
		return nil, cp.internal(n.line, "float binary %q", n.op)
	}
	return nil, fmt.Errorf("ecode: internal: float expression %T", e)
}

func (cp *compiler) compileStr(e expr) (cStr, error) {
	switch n := e.(type) {
	case *stringLit:
		v := n.v
		return func(*cmachine) (string, error) { return v, nil }, nil
	case *identExpr:
		ref, ok := cp.resolve(n.name)
		if !ok || ref.t != TString {
			return nil, cp.internal(n.line, "string read of %q", n.name)
		}
		idx := ref.idx
		return func(m *cmachine) (string, error) { return m.strs[idx], nil }, nil
	case *fieldExpr:
		f, err := cp.compileField(n)
		if err != nil {
			return nil, err
		}
		line, field := n.line, n.field
		return func(m *cmachine) (string, error) {
			v, err := f(m)
			if err != nil {
				return "", err
			}
			s, ok := v.(string)
			if !ok {
				return "", rtErr(line, "field %q is %T, schema says string", field, v)
			}
			return s, nil
		}, nil
	case *callExpr:
		f, err := cp.compileCall(n)
		if err != nil {
			return nil, err
		}
		line, name := n.line, n.name
		return func(m *cmachine) (string, error) {
			v, err := f(m)
			if err != nil {
				return "", err
			}
			s, ok := v.(string)
			if !ok {
				return "", rtErr(line, "%s returned %T, want string", name, v)
			}
			return s, nil
		}, nil
	case *binaryExpr:
		if n.op != "+" {
			return nil, cp.internal(n.line, "string binary %q", n.op)
		}
		l, err := cp.compileStr(n.l)
		if err != nil {
			return nil, err
		}
		r, err := cp.compileStr(n.r)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (string, error) {
			lv, err := l(m)
			if err != nil {
				return "", err
			}
			rv, err := r(m)
			return lv + rv, err
		}, nil
	}
	return nil, fmt.Errorf("ecode: internal: string expression %T", e)
}

func (cp *compiler) compileBool(e expr) (cBool, error) {
	switch n := e.(type) {
	case *boolLit:
		v := n.v
		return func(*cmachine) (bool, error) { return v, nil }, nil
	case *identExpr:
		ref, ok := cp.resolve(n.name)
		if !ok || ref.t != TBool {
			return nil, cp.internal(n.line, "bool read of %q", n.name)
		}
		idx := ref.idx
		return func(m *cmachine) (bool, error) { return m.bools[idx], nil }, nil
	case *fieldExpr:
		f, err := cp.compileField(n)
		if err != nil {
			return nil, err
		}
		line, field := n.line, n.field
		return func(m *cmachine) (bool, error) {
			v, err := f(m)
			if err != nil {
				return false, err
			}
			b, ok := v.(bool)
			if !ok {
				return false, rtErr(line, "field %q is %T, schema says bool", field, v)
			}
			return b, nil
		}, nil
	case *callExpr:
		f, err := cp.compileCall(n)
		if err != nil {
			return nil, err
		}
		line, name := n.line, n.name
		return func(m *cmachine) (bool, error) {
			v, err := f(m)
			if err != nil {
				return false, err
			}
			b, ok := v.(bool)
			if !ok {
				return false, rtErr(line, "%s returned %T, want bool", name, v)
			}
			return b, nil
		}, nil
	case *unaryExpr:
		if n.op != "!" {
			return nil, cp.internal(n.line, "bool unary %q", n.op)
		}
		f, err := cp.compileBool(n.x)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (bool, error) {
			v, err := f(m)
			return !v, err
		}, nil
	case *binaryExpr:
		return cp.compileBoolBinary(n)
	}
	return nil, fmt.Errorf("ecode: internal: bool expression %T", e)
}

func (cp *compiler) compileBoolBinary(n *binaryExpr) (cBool, error) {
	switch n.op {
	case "&&", "||":
		l, err := cp.compileBool(n.l)
		if err != nil {
			return nil, err
		}
		r, err := cp.compileBool(n.r)
		if err != nil {
			return nil, err
		}
		if n.op == "&&" {
			return func(m *cmachine) (bool, error) {
				lv, err := l(m)
				if err != nil || !lv {
					return false, err
				}
				return r(m)
			}, nil
		}
		return func(m *cmachine) (bool, error) {
			lv, err := l(m)
			if err != nil || lv {
				return lv, err
			}
			return r(m)
		}, nil
	}

	lt, rt := cp.typeOf(n.l), cp.typeOf(n.r)
	op := n.op
	switch {
	case lt == TString && rt == TString:
		l, err := cp.compileStr(n.l)
		if err != nil {
			return nil, err
		}
		r, err := cp.compileStr(n.r)
		if err != nil {
			return nil, err
		}
		cmp, err := strCmp(op)
		if err != nil {
			return nil, cp.internal(n.line, "%v", err)
		}
		return func(m *cmachine) (bool, error) {
			lv, err := l(m)
			if err != nil {
				return false, err
			}
			rv, err := r(m)
			return cmp(lv, rv), err
		}, nil
	case lt == TBool && rt == TBool:
		l, err := cp.compileBool(n.l)
		if err != nil {
			return nil, err
		}
		r, err := cp.compileBool(n.r)
		if err != nil {
			return nil, err
		}
		eq := op == "=="
		if !eq && op != "!=" {
			return nil, cp.internal(n.line, "bool comparison %q", op)
		}
		return func(m *cmachine) (bool, error) {
			lv, err := l(m)
			if err != nil {
				return false, err
			}
			rv, err := r(m)
			return (lv == rv) == eq, err
		}, nil
	case lt == TInt && rt == TInt:
		l, err := cp.compileInt(n.l)
		if err != nil {
			return nil, err
		}
		r, err := cp.compileInt(n.r)
		if err != nil {
			return nil, err
		}
		cmp, err := intCmp(op)
		if err != nil {
			return nil, cp.internal(n.line, "%v", err)
		}
		return func(m *cmachine) (bool, error) {
			lv, err := l(m)
			if err != nil {
				return false, err
			}
			rv, err := r(m)
			return cmp(lv, rv), err
		}, nil
	default: // mixed numeric: promote both to float, like evalBinary
		l, err := cp.compileFloat(n.l)
		if err != nil {
			return nil, err
		}
		r, err := cp.compileFloat(n.r)
		if err != nil {
			return nil, err
		}
		cmp, err := floatCmp(op)
		if err != nil {
			return nil, cp.internal(n.line, "%v", err)
		}
		return func(m *cmachine) (bool, error) {
			lv, err := l(m)
			if err != nil {
				return false, err
			}
			rv, err := r(m)
			return cmp(lv, rv), err
		}, nil
	}
}

func intCmp(op string) (func(a, b int64) bool, error) {
	switch op {
	case "==":
		return func(a, b int64) bool { return a == b }, nil
	case "!=":
		return func(a, b int64) bool { return a != b }, nil
	case "<":
		return func(a, b int64) bool { return a < b }, nil
	case "<=":
		return func(a, b int64) bool { return a <= b }, nil
	case ">":
		return func(a, b int64) bool { return a > b }, nil
	case ">=":
		return func(a, b int64) bool { return a >= b }, nil
	}
	return nil, fmt.Errorf("int comparison %q", op)
}

func floatCmp(op string) (func(a, b float64) bool, error) {
	switch op {
	case "==":
		return func(a, b float64) bool { return a == b }, nil
	case "!=":
		return func(a, b float64) bool { return a != b }, nil
	case "<":
		return func(a, b float64) bool { return a < b }, nil
	case "<=":
		return func(a, b float64) bool { return a <= b }, nil
	case ">":
		return func(a, b float64) bool { return a > b }, nil
	case ">=":
		return func(a, b float64) bool { return a >= b }, nil
	}
	return nil, fmt.Errorf("float comparison %q", op)
}

func strCmp(op string) (func(a, b string) bool, error) {
	switch op {
	case "==":
		return func(a, b string) bool { return a == b }, nil
	case "!=":
		return func(a, b string) bool { return a != b }, nil
	case "<":
		return func(a, b string) bool { return a < b }, nil
	case "<=":
		return func(a, b string) bool { return a <= b }, nil
	case ">":
		return func(a, b string) bool { return a > b }, nil
	case ">=":
		return func(a, b string) bool { return a >= b }, nil
	}
	return nil, fmt.Errorf("string comparison %q", op)
}

// compileVal compiles any expression to a generic (boxing) closure —
// used only where a Value is genuinely needed: return statements and
// builtin arguments.
func (cp *compiler) compileVal(e expr) (cVal, error) {
	switch cp.typeOf(e) {
	case TInt:
		f, err := cp.compileInt(e)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (Value, error) {
			v, err := f(m)
			if err != nil {
				return nil, err
			}
			return v, nil
		}, nil
	case TFloat:
		f, err := cp.compileFloat(e)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (Value, error) {
			v, err := f(m)
			if err != nil {
				return nil, err
			}
			return v, nil
		}, nil
	case TBool:
		f, err := cp.compileBool(e)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (Value, error) {
			v, err := f(m)
			if err != nil {
				return nil, err
			}
			return v, nil
		}, nil
	case TString:
		f, err := cp.compileStr(e)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (Value, error) {
			v, err := f(m)
			if err != nil {
				return nil, err
			}
			return v, nil
		}, nil
	case TRecord:
		id, ok := e.(*identExpr)
		if !ok {
			return nil, fmt.Errorf("ecode: internal: record expression %T", e)
		}
		ref, ok := cp.resolve(id.name)
		if !ok {
			return nil, cp.internal(id.line, "record read of %q", id.name)
		}
		idx := ref.idx
		return func(m *cmachine) (Value, error) { return m.recs[idx], nil }, nil
	}
	return nil, fmt.Errorf("ecode: internal: untyped expression %T", e)
}
