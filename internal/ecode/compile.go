package ecode

// compile.go lowers a verified E-Code program to specialized Go
// closures — the paper's "run-time code generation" step. It resolves
// nothing itself: what a name means and what type an expression has are
// read from the resolution the verifier's walk recorded (verify.go), so
// the two cannot disagree. Verification is what makes the lowering fast:
//
//   - Full static typing lets every variable live in a typed slot array
//     (int64/float64/bool/string) indexed at compile time, and makes a
//     record-field read the typed getter of its field-table row, so the
//     hot path never touches a map, compares a name or boxes an
//     intermediate value the way the tree-walking interpreter does.
//   - The termination proof removes the interpreter's per-statement
//     step counter entirely: a verified loop needs no runtime guard.
//   - A call site captures its builtin's implementation at compile time
//     and fills a preallocated buffer of Args (value.go): each argument
//     and the result travel unboxed, with the static type beside the
//     value, so a call allocates nothing. A literal argument is built
//     once, here.
//   - A returned value is held in a typed slot and boxed only when Run's
//     caller asks for it; Exec, which does not, boxes nothing.
//
// Only verified programs can be compiled (CompileVerified runs the
// verifier first); the interpreter (interp_test.go) is the reference
// semantics, and the differential tests and the fuzz harness cross-check
// the two.

import (
	"cmp"
	"fmt"
)

// Compiled is a verified E-Code program lowered to closures. It is
// immutable and shareable: each NewInstance gets private state.
type Compiled struct {
	name string
	cost int

	body []cstmt

	// Slot-space sizes per type.
	nInt, nFloat, nBool, nStr int
	nSInit                    int
	argBufSizes               []int

	statics map[string]slotRef
	bind    *Binding // the host record Run takes; nil when the env has none
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
	c := &Compiled{name: env.name(), cost: v.Cost, statics: map[string]slotRef{}, bind: env.Binding}
	cp := &compiler{c: c, env: env, res: v.res, slots: map[*symbol]slotRef{}}
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

// NewInstance allocates fresh static state for one run of the program
// per event.
func (c *Compiled) NewInstance() *CompiledInstance {
	ci := &CompiledInstance{c: c}
	ci.m = cmachine{
		ints:    make([]int64, c.nInt),
		floats:  make([]float64, c.nFloat),
		bools:   make([]bool, c.nBool),
		strs:    make([]string, c.nStr),
		sinit:   make([]bool, c.nSInit),
		argbufs: make([][]Arg, len(c.argBufSizes)),
	}
	for i, n := range c.argBufSizes {
		ci.m.argbufs[i] = make([]Arg, n)
	}
	return ci
}

// Run executes the program against host, the record the verify env
// binds: a non-nil pointer to the struct its field table was declared
// over (ignored when the env has no record). It returns the value of
// the first executed return statement, or nil if execution falls off
// the end; there is no step limit because termination is proven.
func (ci *CompiledInstance) Run(host any) (Value, error) {
	if err := ci.Exec(host); err != nil {
		return nil, err
	}
	if result := ci.m.ret; result != nil {
		return result(&ci.m), nil
	}
	return nil, nil
}

// Exec is Run for a caller that discards the result: what the program
// returns is left unboxed.
func (ci *CompiledInstance) Exec(host any) error {
	m := &ci.m
	m.ret = nil
	// Checked once here, so no field read has to.
	if b := ci.c.bind; b != nil && !b.isHost(host) {
		return fmt.Errorf("ecode: %s: binding %q is %T, not a %s", ci.c.name, b.name, host, b.host)
	}
	m.host = host
	_, err := execSeq(m, ci.c.body)
	return err
}

// Static returns a persistent variable's value (absent until its
// declaration first executes).
func (ci *CompiledInstance) Static(name string) (Value, bool) {
	ref, ok := ci.c.statics[name]
	if !ok || !ci.m.sinit[ref.sinit] {
		return nil, false
	}
	return ci.m.load(ref), true
}

// cmachine is one instance's mutable execution state: typed slot arrays
// (statics persist across runs; locals are always written before read,
// so they need no reset), the static init guards, per-call-site
// argument buffers, and the host record of the run in progress.
type cmachine struct {
	ints    []int64
	floats  []float64
	bools   []bool
	strs    []string
	sinit   []bool
	argbufs [][]Arg
	host    any
	// ret boxes the value the executed return statement left behind;
	// nil when none ran or it returned nothing.
	ret func(*cmachine) Value
}

// load boxes the value in slot ref.
func (m *cmachine) load(ref slotRef) Value {
	switch ref.t {
	case TInt:
		return m.ints[ref.idx]
	case TFloat:
		return m.floats[ref.idx]
	case TBool:
		return m.bools[ref.idx]
	case TString:
		return m.strs[ref.idx]
	}
	return nil
}

// Closure kinds. A cexpr is typed by the static type of the expression
// it evaluates, so no intermediate value on the hot path is boxed;
// cexpr[Arg] is a builtin's argument or result.
type (
	cstmt          func(*cmachine) (ctrl, error)
	cexpr[T any]   func(*cmachine) (T, error)
	lowerer[T any] func(expr) (cexpr[T], error)
)

// scalar is the set of Go types an E-Code value of static type int,
// float, bool or string has at run time.
type scalar interface {
	int64 | float64 | bool | string
}

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

type compiler struct {
	c       *Compiled
	env     VerifyEnv
	res     *resolution
	slots   map[*symbol]slotRef  // one slot per local or static declaration
	results [TRecord + 1]slotRef // per type, the slot every return of it writes
}

// slot returns the slot of the variable the verifier resolved node (an
// identifier use, an assignment or a declaration) to, allocating it the
// first time the declaration is met.
func (cp *compiler) slot(node any) slotRef {
	s := cp.res.syms[node]
	ref, ok := cp.slots[s]
	if !ok {
		ref = cp.alloc(s.t)
		if s.where == varStatic {
			ref.sinit, cp.c.nSInit = cp.c.nSInit, cp.c.nSInit+1
			cp.c.statics[s.name] = ref
		}
		cp.slots[s] = ref
	}
	return ref
}

// result returns the slot a return statement of type t leaves its value
// in, allocating it the first time.
func (cp *compiler) result(t Type) slotRef {
	if cp.results[t].t == TInvalid {
		cp.results[t] = cp.alloc(t)
	}
	return cp.results[t]
}

// alloc adds one slot of type t.
func (cp *compiler) alloc(t Type) slotRef {
	ref := slotRef{t: t, sinit: -1}
	switch t {
	case TInt:
		ref.idx, cp.c.nInt = cp.c.nInt, cp.c.nInt+1
	case TFloat:
		ref.idx, cp.c.nFloat = cp.c.nFloat, cp.c.nFloat+1
	case TBool:
		ref.idx, cp.c.nBool = cp.c.nBool, cp.c.nBool+1
	case TString:
		ref.idx, cp.c.nStr = cp.c.nStr, cp.c.nStr+1
	}
	return ref
}

// unlowerable reports an AST node the lowering has no case for. The
// verifier admits no such node; FuzzVerify would surface one as this
// error instead of a panic on the install path.
func unlowerable(format string, args ...any) error {
	return fmt.Errorf("ecode: internal: unlowerable "+format, args...)
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
		ref := cp.slot(n)
		store, err := cp.compileStore(ref, "=", n.init, n.line)
		if err != nil || !n.static {
			return store, err
		}
		guard := ref.sinit
		return func(m *cmachine) (ctrl, error) {
			if m.sinit[guard] {
				return ctrlNone, nil
			}
			m.sinit[guard] = true
			return store(m)
		}, nil

	case *assignStmt:
		return cp.compileStore(cp.slot(n), n.op, n.val, n.line)

	case *ifStmt:
		cond, err := cp.compileBool(n.cond)
		if err != nil {
			return nil, err
		}
		then, err := cp.compileBlock(n.then)
		if err != nil {
			return nil, err
		}
		els, err := cp.compileBlock(n.els)
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
		var init, post cstmt
		var cond cexpr[bool]
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
		if a, ok := literal(n.val); ok {
			v := a.Value()
			result := func(*cmachine) Value { return v }
			return func(m *cmachine) (ctrl, error) { m.ret = result; return ctrlReturn, nil }, nil
		}
		ref := cp.result(cp.res.types[n.val])
		store, err := cp.compileStore(ref, "=", n.val, n.line)
		if err != nil {
			return nil, err
		}
		result := func(m *cmachine) Value { return m.load(ref) }
		return func(m *cmachine) (ctrl, error) {
			if _, err := store(m); err != nil {
				return ctrlNone, err
			}
			m.ret = result
			return ctrlReturn, nil
		}, nil

	case *exprStmt:
		f, err := cp.compileArg(n.e)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) { _, err := f(m); return ctrlNone, err }, nil

	case *breakStmt:
		return func(m *cmachine) (ctrl, error) { return ctrlBreak, nil }, nil
	case *continueStmt:
		return func(m *cmachine) (ctrl, error) { return ctrlContinue, nil }, nil
	}
	return nil, unlowerable("statement %T", s)
}

// compileStore lowers "slot op= val": an assignment, or a declaration's
// initialiser (op "=", a nil val meaning the zero value, and int and
// float initialising each other the way the interpreter's coerce does).
// Which slot array is written is the one thing that cannot be said over
// a type parameter without an indirect call per store, so the four
// leaves are spelled out; what is done to the slot is update's.
func (cp *compiler) compileStore(ref slotRef, op string, val expr, line int) (cstmt, error) {
	idx, k := ref.idx, op[0]
	switch ref.t {
	case TInt:
		if val == nil {
			return func(m *cmachine) (ctrl, error) { m.ints[idx] = 0; return ctrlNone, nil }, nil
		}
		if cp.res.types[val] == TFloat {
			f, err := cp.compileFloat(val)
			if err != nil {
				return nil, err
			}
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.ints[idx] = int64(v)
				return ctrlNone, err
			}, nil
		}
		f, err := cp.compileInt(val)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			v, err := f(m)
			if err != nil {
				return ctrlNone, err
			}
			return ctrlNone, update(&m.ints[idx], k, v, line, "integer division by zero")
		}, nil
	case TFloat:
		if val == nil {
			return func(m *cmachine) (ctrl, error) { m.floats[idx] = 0; return ctrlNone, nil }, nil
		}
		f, err := cp.compileFloat(val) // promotes an int val
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			v, err := f(m)
			if err != nil {
				return ctrlNone, err
			}
			return ctrlNone, update(&m.floats[idx], k, v, line, "division by zero")
		}, nil
	case TBool: // "=" is the only assignment the verifier types on a bool
		if val == nil {
			return func(m *cmachine) (ctrl, error) { m.bools[idx] = false; return ctrlNone, nil }, nil
		}
		f, err := cp.compileBool(val)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (ctrl, error) {
			v, err := f(m)
			m.bools[idx] = v
			return ctrlNone, err
		}, nil
	case TString: // "=" and "+=" only
		if val == nil {
			return func(m *cmachine) (ctrl, error) { m.strs[idx] = ""; return ctrlNone, nil }, nil
		}
		f, err := cp.compileStr(val)
		if err != nil {
			return nil, err
		}
		if k == '+' {
			return func(m *cmachine) (ctrl, error) {
				v, err := f(m)
				m.strs[idx] += v
				return ctrlNone, err
			}, nil
		}
		return func(m *cmachine) (ctrl, error) {
			v, err := f(m)
			m.strs[idx] = v
			return ctrlNone, err
		}, nil
	}
	return nil, unlowerable("store to %s at line %d", ref.t, line)
}

// update applies the assignment operator whose first byte is k ("=",
// "+=", "-=", "*=", "/=") to a numeric slot.
func update[T int64 | float64](p *T, k byte, v T, line int, divZero string) error {
	switch k {
	case '=':
		*p = v
	case '+':
		*p += v
	case '-':
		*p -= v
	case '*':
		*p *= v
	case '/':
		if v == 0 {
			return &RuntimeError{Line: line, Msg: divZero}
		}
		*p /= v
	}
	return nil
}

func (cp *compiler) compileCall(n *callExpr) (cexpr[Arg], error) {
	b, _ := cp.env.builtin(n.name)
	fn := b.Fn
	if fn == nil {
		return nil, fmt.Errorf("ecode: %s: builtin %q has no implementation", cp.c.name, n.name)
	}
	argFns := make([]cexpr[Arg], len(n.args))
	for i, a := range n.args {
		f, err := cp.compileArg(a)
		if err != nil {
			return nil, err
		}
		argFns[i] = f
	}
	bufIdx := len(cp.c.argBufSizes)
	cp.c.argBufSizes = append(cp.c.argBufSizes, len(n.args))
	return func(m *cmachine) (Arg, error) {
		buf := m.argbufs[bufIdx]
		for i, f := range argFns {
			a, err := f(m)
			if err != nil {
				return Arg{}, err
			}
			buf[i] = a
		}
		return fn(buf), nil
	}, nil
}

// The four typed lowerings. Each spells out only what is particular to
// its type — the literal node, the slot array an identifier loads from,
// and the operators that exist on it alone — and hands every other node
// to the shared family below.

func (cp *compiler) compileInt(e expr) (cexpr[int64], error) {
	switch n := e.(type) {
	case *intLit:
		return constant(n.v), nil
	case *identExpr:
		idx := cp.slot(n).idx
		return func(m *cmachine) (int64, error) { return m.ints[idx], nil }, nil
	case *unaryExpr:
		return negate(cp.compileInt(n.x))
	case *binaryExpr:
		if n.op != "%" {
			return arith(cp.compileInt, n, "integer division by zero")
		}
		l, r, err := operands(cp.compileInt, n)
		if err != nil {
			return nil, err
		}
		line := n.line
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
	return unbox[int64](cp, e)
}

func (cp *compiler) compileFloat(e expr) (cexpr[float64], error) {
	// Ints promote to float wherever a float is expected, exactly like
	// evalBinary's mixed-operand rule.
	if cp.res.types[e] == TInt {
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
		return constant(n.v), nil
	case *identExpr:
		idx := cp.slot(n).idx
		return func(m *cmachine) (float64, error) { return m.floats[idx], nil }, nil
	case *unaryExpr:
		return negate(cp.compileFloat(n.x))
	case *binaryExpr:
		return arith(cp.compileFloat, n, "division by zero")
	}
	return unbox[float64](cp, e)
}

func (cp *compiler) compileStr(e expr) (cexpr[string], error) {
	switch n := e.(type) {
	case *stringLit:
		return constant(n.v), nil
	case *identExpr:
		idx := cp.slot(n).idx
		return func(m *cmachine) (string, error) { return m.strs[idx], nil }, nil
	case *binaryExpr: // "+" is the only string-valued operator
		l, r, err := operands(cp.compileStr, n)
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
	return unbox[string](cp, e)
}

func (cp *compiler) compileBool(e expr) (cexpr[bool], error) {
	switch n := e.(type) {
	case *boolLit:
		return constant(n.v), nil
	case *identExpr:
		idx := cp.slot(n).idx
		return func(m *cmachine) (bool, error) { return m.bools[idx], nil }, nil
	case *unaryExpr: // "!" is the only bool-valued unary
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
	return unbox[bool](cp, e)
}

func (cp *compiler) compileBoolBinary(n *binaryExpr) (cexpr[bool], error) {
	lt, rt := cp.res.types[n.l], cp.res.types[n.r]
	switch {
	case n.op == "&&":
		l, r, err := operands(cp.compileBool, n)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (bool, error) {
			lv, err := l(m)
			if err != nil || !lv {
				return false, err
			}
			return r(m)
		}, nil
	case n.op == "||":
		l, r, err := operands(cp.compileBool, n)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (bool, error) {
			lv, err := l(m)
			if err != nil || lv {
				return lv, err
			}
			return r(m)
		}, nil
	case lt == TBool: // "==" and "!=" only; bools are not ordered
		l, r, err := operands(cp.compileBool, n)
		if err != nil {
			return nil, err
		}
		eq := n.op == "=="
		return func(m *cmachine) (bool, error) {
			lv, err := l(m)
			if err != nil {
				return false, err
			}
			rv, err := r(m)
			return (lv == rv) == eq, err
		}, nil
	case lt == TString:
		return compare(cp.compileStr, n)
	case lt == TInt && rt == TInt:
		return compare(cp.compileInt, n)
	}
	// Mixed numeric operands both promote to float, like evalBinary.
	return compare(cp.compileFloat, n)
}

// compileArg lowers any expression to an Arg: a builtin's argument, or
// an expression statement's discarded value. A literal is built here,
// once, and a call's result passes through as it came.
func (cp *compiler) compileArg(e expr) (cexpr[Arg], error) {
	if a, ok := literal(e); ok {
		return constant(a), nil
	}
	if call, ok := e.(*callExpr); ok {
		return cp.compileCall(call)
	}
	switch cp.res.types[e] {
	case TInt:
		return toArg(cp.compileInt(e))
	case TFloat:
		return toArg(cp.compileFloat(e))
	case TBool:
		return toArg(cp.compileBool(e))
	case TString:
		return toArg(cp.compileStr(e))
	case TRecord: // only the bare host binding is record-typed
		return func(m *cmachine) (Arg, error) { return Arg{T: TRecord, Rec: m.host}, nil }, nil
	}
	return nil, unlowerable("untyped expression %T", e)
}

// literal returns a literal node's value.
func literal(e expr) (Arg, bool) {
	switch n := e.(type) {
	case *intLit:
		return argOf(n.v), true
	case *floatLit:
		return argOf(n.v), true
	case *boolLit:
		return argOf(n.v), true
	case *stringLit:
		return argOf(n.v), true
	}
	return Arg{}, false
}

// The closure family every typed lowering shares, written once over the
// value's Go type. Where the operator is native to the instantiation
// (+ on int64, < on string) the generic closure costs what the
// hand-written one did: no node gains an indirect call, a type switch
// or an allocation.

func constant[T any](v T) cexpr[T] {
	return func(*cmachine) (T, error) { return v, nil }
}

// operands lowers both sides of a binary node with one typed lowering.
func operands[T any](lower lowerer[T], n *binaryExpr) (l, r cexpr[T], err error) {
	if l, err = lower(n.l); err == nil {
		r, err = lower(n.r)
	}
	return l, r, err
}

// unbox lowers the two nodes whose value comes from the host. A record
// field is read by its table row's typed getter: the row is picked
// here, once, and the read itself is that one call. A builtin's result
// is read from the field of the static type the verifier gave it.
func unbox[T scalar](cp *compiler, e expr) (cexpr[T], error) {
	want := cp.res.types[e]
	switch n := e.(type) {
	case *fieldExpr:
		f, _ := cp.env.Binding.field(n.field)
		if read, ok := f.read.(cexpr[T]); ok {
			return read, nil
		}
	case *callExpr:
		f, err := cp.compileCall(n)
		if err != nil {
			return nil, err
		}
		return func(m *cmachine) (T, error) {
			a, err := f(m)
			return argAs[T](&a), err
		}, nil
	}
	return nil, unlowerable("%s expression %T", want, e)
}

func toArg[T scalar](f cexpr[T], err error) (cexpr[Arg], error) {
	if err != nil {
		return nil, err
	}
	return func(m *cmachine) (Arg, error) {
		v, err := f(m)
		return argOf(v), err
	}, nil
}

// argOf and argAs move a value between its Go type and its Arg field.
// The constraint admits exactly four types, so each instantiation takes
// one case.
func argOf[T scalar](v T) (a Arg) {
	switch x := any(v).(type) {
	case int64:
		a = Arg{T: TInt, Int: x}
	case float64:
		a = Arg{T: TFloat, Float: x}
	case bool:
		a = Arg{T: TBool, Bool: x}
	case string:
		a = Arg{T: TString, Str: x}
	}
	return a
}

func argAs[T scalar](a *Arg) (v T) {
	switch p := any(&v).(type) {
	case *int64:
		*p = a.Int
	case *float64:
		*p = a.Float
	case *bool:
		*p = a.Bool
	case *string:
		*p = a.Str
	}
	return v
}

func negate[T int64 | float64](f cexpr[T], err error) (cexpr[T], error) {
	if err != nil {
		return nil, err
	}
	return func(m *cmachine) (T, error) {
		v, err := f(m)
		return -v, err
	}, nil
}

// arith lowers + - * / over one numeric type; divZero is the text that
// type's division fault carries.
func arith[T int64 | float64](lower lowerer[T], n *binaryExpr, divZero string) (cexpr[T], error) {
	l, r, err := operands(lower, n)
	if err != nil {
		return nil, err
	}
	switch n.op {
	case "+":
		return func(m *cmachine) (T, error) {
			lv, err := l(m)
			if err != nil {
				return 0, err
			}
			rv, err := r(m)
			return lv + rv, err
		}, nil
	case "-":
		return func(m *cmachine) (T, error) {
			lv, err := l(m)
			if err != nil {
				return 0, err
			}
			rv, err := r(m)
			return lv - rv, err
		}, nil
	case "*":
		return func(m *cmachine) (T, error) {
			lv, err := l(m)
			if err != nil {
				return 0, err
			}
			rv, err := r(m)
			return lv * rv, err
		}, nil
	case "/":
		line := n.line
		return func(m *cmachine) (T, error) {
			lv, err := l(m)
			if err != nil {
				return 0, err
			}
			rv, err := r(m)
			if err != nil {
				return 0, err
			}
			if rv == 0 {
				return 0, &RuntimeError{Line: line, Msg: divZero}
			}
			return lv / rv, nil
		}, nil
	}
	return nil, unlowerable("arithmetic %q at line %d", n.op, n.line)
}

// compare lowers the six comparisons over one ordered type.
func compare[T cmp.Ordered](lower lowerer[T], n *binaryExpr) (cexpr[bool], error) {
	l, r, err := operands(lower, n)
	if err != nil {
		return nil, err
	}
	var test func(a, b T) bool
	switch n.op {
	case "==":
		test = func(a, b T) bool { return a == b }
	case "!=":
		test = func(a, b T) bool { return a != b }
	case "<":
		test = func(a, b T) bool { return a < b }
	case "<=":
		test = func(a, b T) bool { return a <= b }
	case ">":
		test = func(a, b T) bool { return a > b }
	case ">=":
		test = func(a, b T) bool { return a >= b }
	default:
		return nil, unlowerable("comparison %q at line %d", n.op, n.line)
	}
	return func(m *cmachine) (bool, error) {
		lv, err := l(m)
		if err != nil {
			return false, err
		}
		rv, err := r(m)
		return test(lv, rv), err
	}, nil
}
