package ecode

// The tree-walking interpreter: E-Code's reference semantics. Nothing
// ships it — CPAs and dissemination filters run on the verified,
// closure-compiled engine (compile.go) — but it is the oracle that
// TestCompiledMatchesInterpreter, TestFilterCompiledMatchesInterpreter,
// FuzzVerify and BenchmarkCPAPerEvent/interp hold that engine to. It
// evaluates the AST directly, boxing every value and counting steps at
// run time, which is exactly what the verifier's proofs let the
// compiler leave out.

import (
	"fmt"
	"strings"
)

// Instance is a program plus its persistent state: static variables
// survive across Run calls, which is how CPAs accumulate statistics over
// event streams.
type Instance struct {
	prog    *Program
	statics map[string]Value
	// env is where the host record and the builtins come from: the same
	// tables the verifier and the compiler read, looked up by name.
	env VerifyEnv
	// stepLimit bounds loop iterations per Run so a buggy analyzer
	// cannot wedge the kernel fast path.
	stepLimit int
	steps     int
}

// InstanceOption configures an Instance.
type InstanceOption func(*Instance)

// WithEnv runs the program in env: Run's host is bound under the name
// of env's binding, and env's builtins extend the standard ones.
func WithEnv(env VerifyEnv) InstanceOption {
	return func(i *Instance) { i.env = env }
}

// WithStepLimit overrides the per-run execution step budget (default 1e6).
func WithStepLimit(n int) InstanceOption {
	return func(i *Instance) {
		if n > 0 {
			i.stepLimit = n
		}
	}
}

// NewInstance creates an executable instance with fresh static state.
func (p *Program) NewInstance(opts ...InstanceOption) *Instance {
	inst := &Instance{
		prog:      p,
		statics:   make(map[string]Value),
		stepLimit: 1_000_000,
	}
	for _, opt := range opts {
		opt(inst)
	}
	return inst
}

type scope struct {
	vars   map[string]Value
	parent *scope
}

func (s *scope) lookup(name string) (Value, *scope, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, cur, true
		}
	}
	return nil, nil, false
}

type execState struct {
	inst   *Instance
	locals *scope
	ret    Value
}

// Run executes the program with host bound as the env's binding (e.g. a
// *kprof.Event as "ev"). It returns the value of the first executed
// return statement, or nil if execution falls off the end.
func (i *Instance) Run(host any) (Value, error) {
	i.steps = 0
	root := &scope{vars: map[string]Value{}}
	if b := i.env.Binding; b != nil {
		root.vars[b.name] = host
	}
	st := &execState{inst: i, locals: &scope{vars: make(map[string]Value), parent: root}}
	_, err := st.execBlock(i.prog.body)
	if err != nil {
		return nil, err
	}
	return st.ret, nil
}

// Static returns a persistent variable's current value (observability for
// hosts and tests).
func (i *Instance) Static(name string) (Value, bool) {
	v, ok := i.statics[name]
	return v, ok
}

// Steps reports how many steps the last Run counted, the figure a
// verdict's cost must bound.
func (i *Instance) Steps() int { return i.steps }

func (st *execState) step(line int) error {
	st.inst.steps++
	if st.inst.steps > st.inst.stepLimit {
		return rtErr(line, "step limit exceeded (%d)", st.inst.stepLimit)
	}
	return nil
}

func (st *execState) execBlock(stmts []stmt) (ctrl, error) {
	for _, s := range stmts {
		c, err := st.exec(s)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (st *execState) exec(s stmt) (ctrl, error) {
	switch n := s.(type) {
	case *declStmt:
		if err := st.step(n.line); err != nil {
			return ctrlNone, err
		}
		var v Value
		if n.init != nil {
			var err error
			v, err = st.eval(n.init)
			if err != nil {
				return ctrlNone, err
			}
			v, err = coerce(v, n.typ, n.line)
			if err != nil {
				return ctrlNone, err
			}
		} else {
			v = zeroOf(n.typ)
		}
		if n.static {
			if _, ok := st.inst.statics[n.name]; !ok {
				st.inst.statics[n.name] = v
			}
			return ctrlNone, nil
		}
		st.locals.vars[n.name] = v
		return ctrlNone, nil

	case *assignStmt:
		if err := st.step(n.line); err != nil {
			return ctrlNone, err
		}
		v, err := st.eval(n.val)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, st.assign(n, v)

	case *ifStmt:
		if err := st.step(n.line); err != nil {
			return ctrlNone, err
		}
		cond, err := st.evalBool(n.cond, n.line)
		if err != nil {
			return ctrlNone, err
		}
		st.locals = &scope{vars: make(map[string]Value), parent: st.locals}
		defer func() { st.locals = st.locals.parent }()
		if cond {
			return st.execBlock(n.then)
		}
		return st.execBlock(n.els)

	case *forStmt:
		st.locals = &scope{vars: make(map[string]Value), parent: st.locals}
		defer func() { st.locals = st.locals.parent }()
		if n.init != nil {
			if _, err := st.exec(n.init); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if err := st.step(n.line); err != nil {
				return ctrlNone, err
			}
			if n.cond != nil {
				ok, err := st.evalBool(n.cond, n.line)
				if err != nil {
					return ctrlNone, err
				}
				if !ok {
					break
				}
			}
			// The body is a scope of its own, fresh on every iteration.
			st.locals = &scope{vars: make(map[string]Value), parent: st.locals}
			c, err := st.execBlock(n.body)
			st.locals = st.locals.parent
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlReturn {
				return c, nil
			}
			if c == ctrlBreak {
				break
			}
			if n.post != nil {
				if _, err := st.exec(n.post); err != nil {
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil

	case *returnStmt:
		if err := st.step(n.line); err != nil {
			return ctrlNone, err
		}
		if n.val != nil {
			v, err := st.eval(n.val)
			if err != nil {
				return ctrlNone, err
			}
			st.ret = v
		}
		return ctrlReturn, nil

	case *exprStmt:
		if err := st.step(n.line); err != nil {
			return ctrlNone, err
		}
		_, err := st.eval(n.e)
		return ctrlNone, err

	case *breakStmt:
		return ctrlBreak, nil
	case *continueStmt:
		return ctrlContinue, nil
	}
	return ctrlNone, fmt.Errorf("ecode: unknown statement %T", s)
}

func (st *execState) assign(n *assignStmt, v Value) error {
	// Resolve target: local scope chain first, then statics.
	if _, sc, ok := st.locals.lookup(n.name); ok {
		nv, err := applyOp(sc.vars[n.name], n.op, v, n.line)
		if err != nil {
			return err
		}
		sc.vars[n.name] = nv
		return nil
	}
	if old, ok := st.inst.statics[n.name]; ok {
		nv, err := applyOp(old, n.op, v, n.line)
		if err != nil {
			return err
		}
		st.inst.statics[n.name] = nv
		return nil
	}
	return rtErr(n.line, "assignment to undeclared variable %q", n.name)
}

func applyOp(old Value, op string, v Value, line int) (Value, error) {
	if op == "=" {
		return v, nil
	}
	binOp := strings.TrimSuffix(op, "=")
	return evalBinary(binOp, old, v, line)
}

func zeroOf(typ string) Value {
	switch typ {
	case "int":
		return int64(0)
	case "float":
		return float64(0)
	case "bool":
		return false
	case "string":
		return ""
	}
	return nil
}

func coerce(v Value, typ string, line int) (Value, error) {
	switch typ {
	case "int":
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		}
	case "float":
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		}
	case "bool":
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case "string":
		if s, ok := v.(string); ok {
			return s, nil
		}
	}
	return nil, rtErr(line, "cannot initialize %s with %T", typ, v)
}

func (st *execState) evalBool(e expr, line int) (bool, error) {
	v, err := st.eval(e)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, rtErr(line, "condition is %T, not bool", v)
	}
	return b, nil
}

func (st *execState) eval(e expr) (Value, error) {
	switch n := e.(type) {
	case *intLit:
		return n.v, nil
	case *floatLit:
		return n.v, nil
	case *boolLit:
		return n.v, nil
	case *stringLit:
		return n.v, nil

	case *identExpr:
		if v, _, ok := st.locals.lookup(n.name); ok {
			return v, nil
		}
		if v, ok := st.inst.statics[n.name]; ok {
			return v, nil
		}
		return nil, rtErr(n.line, "undefined variable %q", n.name)

	case *fieldExpr:
		recv, err := st.eval(n.recv)
		if err != nil {
			return nil, err
		}
		rec := st.inst.env.Binding
		if rec == nil || !rec.isHost(recv) {
			return nil, rtErr(n.line, "field access on non-record %T", recv)
		}
		v, ok := rec.Value(recv, n.field)
		if !ok {
			return nil, rtErr(n.line, "record has no field %q", n.field)
		}
		return v, nil

	case *callExpr:
		b, _ := st.inst.env.builtin(n.name)
		fn := b.Fn
		if fn == nil {
			return nil, rtErr(n.line, "unknown function %q", n.name)
		}
		args := make([]Arg, len(n.args))
		for i, a := range n.args {
			v, err := st.eval(a)
			if err != nil {
				return nil, err
			}
			args[i] = argOfValue(v)
		}
		return fn(args).Value(), nil

	case *unaryExpr:
		v, err := st.eval(n.x)
		if err != nil {
			return nil, err
		}
		switch n.op {
		case "-":
			switch x := v.(type) {
			case int64:
				return -x, nil
			case float64:
				return -x, nil
			}
			return nil, rtErr(n.line, "unary - on %T", v)
		case "!":
			if b, ok := v.(bool); ok {
				return !b, nil
			}
			return nil, rtErr(n.line, "unary ! on %T", v)
		}
		return nil, rtErr(n.line, "unknown unary op %q", n.op)

	case *binaryExpr:
		// Short-circuit logical operators.
		if n.op == "&&" || n.op == "||" {
			lb, err := st.evalBool(n.l, n.line)
			if err != nil {
				return nil, err
			}
			if n.op == "&&" && !lb {
				return false, nil
			}
			if n.op == "||" && lb {
				return true, nil
			}
			return st.evalBool(n.r, n.line)
		}
		l, err := st.eval(n.l)
		if err != nil {
			return nil, err
		}
		r, err := st.eval(n.r)
		if err != nil {
			return nil, err
		}
		return evalBinary(n.op, l, r, n.line)
	}
	return nil, fmt.Errorf("ecode: unknown expression %T", e)
}

// argOfValue unboxes an evaluated argument into the Arg a builtin
// takes: the interpreter's side of the calling convention, where the
// compiled engine builds the Arg from the static type instead.
func argOfValue(v Value) Arg {
	switch x := v.(type) {
	case int64:
		return Arg{T: TInt, Int: x}
	case float64:
		return Arg{T: TFloat, Float: x}
	case bool:
		return Arg{T: TBool, Bool: x}
	case string:
		return Arg{T: TString, Str: x}
	}
	return Arg{T: TRecord, Rec: v}
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func evalBinary(op string, l, r Value, line int) (Value, error) {
	// String operations.
	if ls, ok := l.(string); ok {
		rs, ok := r.(string)
		if !ok {
			return nil, rtErr(line, "mixed string/%T operands", r)
		}
		switch op {
		case "+":
			return ls + rs, nil
		case "==":
			return ls == rs, nil
		case "!=":
			return ls != rs, nil
		case "<":
			return ls < rs, nil
		case "<=":
			return ls <= rs, nil
		case ">":
			return ls > rs, nil
		case ">=":
			return ls >= rs, nil
		}
		return nil, rtErr(line, "op %q not defined on strings", op)
	}
	// Bool equality.
	if lb, ok := l.(bool); ok {
		rb, ok := r.(bool)
		if !ok {
			return nil, rtErr(line, "mixed bool/%T operands", r)
		}
		switch op {
		case "==":
			return lb == rb, nil
		case "!=":
			return lb != rb, nil
		}
		return nil, rtErr(line, "op %q not defined on bools", op)
	}
	// Numeric: promote int to float when mixed.
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, rtErr(line, "integer division by zero")
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				return nil, rtErr(line, "integer modulo by zero")
			}
			return li % ri, nil
		case "==":
			return li == ri, nil
		case "!=":
			return li != ri, nil
		case "<":
			return li < ri, nil
		case "<=":
			return li <= ri, nil
		case ">":
			return li > ri, nil
		case ">=":
			return li >= ri, nil
		}
		return nil, rtErr(line, "unknown op %q", op)
	}
	lf, lOK := toFloat(l)
	rf, rOK := toFloat(r)
	if !lOK || !rOK {
		return nil, rtErr(line, "op %q on %T and %T", op, l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, rtErr(line, "division by zero")
		}
		return lf / rf, nil
	case "==":
		return lf == rf, nil
	case "!=":
		return lf != rf, nil
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	}
	return nil, rtErr(line, "op %q not defined on floats", op)
}

// Name is the name programs see the record under.
func (r *Binding) Name() string { return r.name }

// FieldNames lists the table's rows, sorted.
func (r *Binding) FieldNames() []string { return r.fieldNames() }

// Value reads one field of host by name, boxed: the interpreter's field
// access, through the row's own getter.
func (r *Binding) Value(host any, name string) (Value, bool) {
	f, _ := r.field(name)
	m := &cmachine{host: host}
	switch read := f.read.(type) {
	case cexpr[int64]:
		v, _ := read(m)
		return v, true
	case cexpr[float64]:
		v, _ := read(m)
		return v, true
	case cexpr[bool]:
		v, _ := read(m)
		return v, true
	case cexpr[string]:
		v, _ := read(m)
		return v, true
	}
	return nil, false
}
