package ecode

// verify.go is the E-Code static verifier: the gate every custom
// analyzer must pass before it is installed on the kernel event fast
// path. The paper's CPA story is analyzers "dynamically created and
// downloaded into the kernel" — which, like eBPF, is only safe if an
// uploaded program provably cannot block, allocate without bound, or
// loop forever. The verifier proves those properties on the AST, before
// any instruction runs:
//
//	typecheck    full static typing over the int/float/bool/string
//	             lattice; record-field access is validated against the
//	             host record's field table (unknown fields, mixed-type
//	             operands and mistyped builtin arguments are rejected)
//	termination  every loop must have a statically derivable worst-case
//	             iteration count: an int counter with a known start at
//	             loop entry, one unconditional constant step, and a
//	             limit that no iteration writes; anything else is
//	             rejected instead of trusting the interpreter's runtime
//	             step limit
//	noalloc      string concatenation inside loops and unbounded growth
//	             of persistent (static) strings are rejected
//	noblock      every builtin is classified blocking/nonblocking in a
//	             signature table; calls to blocking builtins are rejected
//	cost         a worst-case per-event step count is derived from the
//	             proven loop bounds and the builtin cost table, reported
//	             in the verdict, and checked against a ceiling
//
// Known values, counters and limits are keyed by declaration — the
// resolution's symbols — never by spelling, so a shadowing declaration
// cannot lend its value to the name it hides. The differential tests
// check that the cost is at least the interpreter's step count on every
// accepted program they run.
//
// Diagnostics are diag.Diagnostic values, so the verdict renders in
// sysproflint's evidence-chain shape (file:line:col first line plus
// indented supporting frames) and CLI/CI output stays uniform.

import (
	"fmt"
	gotoken "go/token"
	"maps"
	"sort"
	"strings"

	"sysprof/internal/diag"
)

// Type is one point of the E-Code static type lattice.
type Type uint8

const (
	TInvalid Type = iota
	TInt
	TFloat
	TBool
	TString
	TRecord
)

// String names the type the way E-Code source spells it.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TString:
		return "string"
	case TRecord:
		return "record"
	}
	return "invalid"
}

func typeFromName(name string) Type {
	switch name {
	case "int":
		return TInt
	case "float":
		return TFloat
	case "bool":
		return TBool
	case "string":
		return TString
	}
	return TInvalid
}

// ParamKind constrains one builtin parameter.
type ParamKind uint8

const (
	// PNum accepts int or float.
	PNum ParamKind = iota
	// PString accepts string.
	PString
	// PAny accepts any value, including records (emit's payload).
	PAny
)

// ResultKind determines a builtin call's static result type.
type ResultKind uint8

const (
	RInt ResultKind = iota
	RFloat
	RBool
	RString
	// RArg0 types the result like the first argument (abs, min, max).
	// With Variadic set, every argument must share the first one's type,
	// because the runtime returns whichever argument wins.
	RArg0
)

// Builtin is one host function programs may call, declared once: the
// typing, the blocking/nonblocking classification the noblock pass
// enforces and the worst-case step cost the verifier reads, and the
// implementation a compiled call site captures (see standardBuiltins).
type Builtin struct {
	Params   []ParamKind
	Variadic bool // last param may repeat (at least one argument total)
	Result   ResultKind
	Blocking bool // true: never allowed on the event fast path
	Cost     int  // worst-case steps charged per call (0 counts as 1)
	// Fn runs a call. The verifier has checked the arity and typed
	// every argument, so Fn reads each Arg's field without a check and
	// returns an Arg of its Result type; it cannot fail, and it must not
	// keep args, a buffer the call site reuses. Fn may be nil only where
	// Blocking already keeps every call out.
	Fn func(args []Arg) Arg
}

// DefaultMaxCost is the per-event worst-case step ceiling when
// VerifyEnv.MaxCost is zero. It is far below the interpreter's runtime
// step limit: a verified analyzer can never come near that limit.
const DefaultMaxCost = 50_000

// Verifier pass names, as they appear in Diagnostic.Analyzer.
const (
	PassTypecheck   = "typecheck"
	PassTermination = "termination"
	PassNoAlloc     = "noalloc"
	PassNoBlock     = "noblock"
	PassCost        = "cost"
)

// VerifyEnv is the environment a program is verified against and, once
// it passes, compiled into: the record it may read, the builtins it may
// call, and the cost ceiling it must fit under.
type VerifyEnv struct {
	// Name labels diagnostics (every finding's Pos.Filename). Pass the
	// analyzer's name or source path; empty means "analyzer".
	Name string
	// Binding is the one host record programs read (nil: none).
	Binding *Binding
	// Builtins extends or overrides the standard table for this
	// environment (e.g. the CPA host adds emit).
	Builtins map[string]Builtin
	// MaxCost rejects analyzers whose worst-case per-event step count
	// exceeds it; zero means DefaultMaxCost.
	MaxCost int
}

func (env *VerifyEnv) name() string {
	if env.Name == "" {
		return "analyzer"
	}
	return env.Name
}

func (env *VerifyEnv) maxCost() int {
	if env.MaxCost <= 0 {
		return DefaultMaxCost
	}
	return env.MaxCost
}

// builtin resolves a function name: the environment's table first, then
// the standard one.
func (env *VerifyEnv) builtin(name string) (Builtin, bool) {
	if b, ok := env.Builtins[name]; ok {
		return b, true
	}
	b, ok := standardBuiltins[name]
	return b, ok
}

// Verdict is the verifier's decision on one program.
type Verdict struct {
	// OK is true when every pass accepted the program.
	OK bool
	// Cost is the statically derived worst-case step count per event
	// (statements + expression nodes + builtin table costs), an upper
	// bound on the interpreter's own step counter; the differential
	// tests fail any accepted program that runs more steps.
	Cost int
	// Diags are the findings, sorted by line, in sysproflint's
	// evidence-chain shape.
	Diags []diag.Diagnostic

	// res is what the walk resolved; CompileVerified lowers from it.
	res *resolution
}

// symbol is one thing a name can mean: a local or static declaration,
// or a host record binding. Two declarations of the same name are two
// symbols; every use of a static shares one.
type symbol struct {
	name  string
	t     Type
	where varWhere
}

// resolution is what one Verify walk learned about a program: the static
// type of every expression node, and which symbol every identifier use
// (*identExpr), assignment target (*assignStmt) and declaration
// (*declStmt) names. It is keyed by AST node and kept beside the AST,
// never in it: one *Program is verified against different environments,
// possibly from several goroutines at once.
type resolution struct {
	types map[expr]Type
	syms  map[any]*symbol
}

// Render returns every diagnostic with its evidence chain, one finding
// per paragraph, the way the sysproflint CLI prints them.
func (v *Verdict) Render() string {
	parts := make([]string, len(v.Diags))
	for i, d := range v.Diags {
		parts[i] = d.Detail()
	}
	return strings.Join(parts, "\n")
}

// Err returns nil when the program verified, or an error carrying the
// rendered diagnostics.
func (v *Verdict) Err() error {
	if v.OK {
		return nil
	}
	return fmt.Errorf("verification failed:\n%s", v.Render())
}

// Verify statically checks the program against env and returns the
// verdict. It never executes the program.
func (p *Program) Verify(env VerifyEnv) *Verdict {
	vf := &verifier{
		env:     env,
		statics: map[string]*symbol{},
		consts:  map[*symbol]int64{},
		res:     &resolution{types: map[expr]Type{}, syms: map[any]*symbol{}},
	}
	root := &vscope{vars: map[string]*symbol{}}
	if b := env.Binding; b != nil {
		root.vars[b.name] = &symbol{name: b.name, t: TRecord, where: varBinding}
	}
	vf.sc = &vscope{vars: map[string]*symbol{}, parent: root}
	cost := vf.checkBlock(p.body)
	if cost > env.maxCost() {
		vf.reportChain(PassCost, 1,
			[]diag.ChainFrame{vf.frame(1, fmt.Sprintf("ceiling is %d steps per event; shrink loop bounds or split the analyzer", env.maxCost()))},
			"worst-case per-event cost %d exceeds the verifier ceiling", cost)
	}

	sort.SliceStable(vf.diags, func(i, j int) bool { return vf.diags[i].Pos.Line < vf.diags[j].Pos.Line })
	return &Verdict{OK: len(vf.diags) == 0, Cost: cost, Diags: vf.diags, res: vf.res}
}

// vscope is a static scope: variable name to the declaration it names,
// chained like the interpreter's runtime scopes so shadowing resolves
// identically. It is the only scope chain in the package.
type vscope struct {
	vars   map[string]*symbol
	parent *vscope
}

type verifier struct {
	env VerifyEnv

	sc      *vscope
	statics map[string]*symbol
	// consts holds the statically known value of local int declarations
	// in the current straight-line context, for loop-bound inference;
	// any write the verifier cannot fold deletes the entry. Statics
	// persist across events with values the verifier cannot know and
	// never have one.
	consts map[*symbol]int64
	// loops is the stack of enclosing loop lines (for noalloc evidence).
	loops []int

	diags []diag.Diagnostic
	res   *resolution
}

func (vf *verifier) pos(line int) gotoken.Position {
	return gotoken.Position{Filename: vf.env.name(), Line: line, Column: 1}
}

func (vf *verifier) frame(line int, msg string) diag.ChainFrame {
	return diag.ChainFrame{Pos: vf.pos(line), Msg: msg}
}

func (vf *verifier) report(pass string, line int, format string, args ...any) {
	vf.reportChain(pass, line, nil, format, args...)
}

func (vf *verifier) reportChain(pass string, line int, chain []diag.ChainFrame, format string, args ...any) {
	vf.diags = append(vf.diags, diag.Diagnostic{
		Pos:      vf.pos(line),
		Analyzer: pass,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// maxVerifyCost saturates cost arithmetic so absurd nested bounds do not
// overflow into acceptance.
const maxVerifyCost = 1 << 40

func addCost(a, b int) int {
	if s := a + b; s >= 0 && s < maxVerifyCost {
		return s
	}
	return maxVerifyCost
}

func mulCost(a int, b int64) int {
	if a <= 0 || b <= 0 {
		return 0
	}
	if int64(a) > maxVerifyCost/b {
		return maxVerifyCost
	}
	return a * int(b)
}

// checkScoped verifies a braced block in a scope of its own.
func (vf *verifier) checkScoped(stmts []stmt) int {
	vf.sc = &vscope{vars: map[string]*symbol{}, parent: vf.sc}
	defer func() { vf.sc = vf.sc.parent }()
	return vf.checkBlock(stmts)
}

// checkBlock verifies a statement sequence in the current scope and
// returns its worst-case cost.
func (vf *verifier) checkBlock(stmts []stmt) int {
	cost := 0
	for _, s := range stmts {
		cost = addCost(cost, vf.checkStmt(s))
	}
	return cost
}

func (vf *verifier) checkStmt(s stmt) int {
	switch n := s.(type) {
	case *declStmt:
		return vf.checkDecl(n)
	case *assignStmt:
		return vf.checkAssign(n)
	case *ifStmt:
		condT, condCost := vf.checkExpr(n.cond)
		if condT != TBool && condT != TInvalid {
			vf.report(PassTypecheck, n.line, "if condition is %s, not bool", condT)
		}
		// Branch scopes mirror the interpreter's. A conditional write is
		// not a statically known value, and the else branch runs only
		// when the then branch did not.
		thenCost := vf.checkScoped(n.then)
		vf.clearAssigned(n.then)
		elseCost := vf.checkScoped(n.els)
		vf.clearAssigned(n.els)
		branch := thenCost
		if elseCost > branch {
			branch = elseCost
		}
		return addCost(1, addCost(condCost, branch))
	case *forStmt:
		return vf.checkFor(n)
	case *returnStmt:
		cost := 1
		if n.val != nil {
			t, c := vf.checkExpr(n.val)
			if t == TRecord {
				vf.report(PassTypecheck, n.line, "cannot return a record")
			}
			cost = addCost(cost, c)
		}
		return cost
	case *exprStmt:
		_, c := vf.checkExpr(n.e)
		return addCost(1, c)
	case *breakStmt, *continueStmt:
		return 1
	}
	return 1
}

func (vf *verifier) checkDecl(n *declStmt) int {
	t := typeFromName(n.typ)
	cost := 1
	if n.init != nil {
		it, c := vf.checkExpr(n.init)
		cost = addCost(cost, c)
		if !initCompatible(t, it) && it != TInvalid {
			vf.report(PassTypecheck, n.line, "cannot initialize %s %q with %s", t, n.name, it)
		}
	}
	// The name is bound only now: the initialiser above resolved in the
	// scope as it stood before this declaration.
	if n.static {
		sym := vf.statics[n.name]
		if sym != nil && sym.t != t {
			vf.report(PassTypecheck, n.line, "static %q redeclared as %s (previously %s)", n.name, t, sym.t)
			sym = nil
		}
		if sym == nil {
			sym = &symbol{name: n.name, t: t, where: varStatic}
			vf.statics[n.name] = sym
		}
		vf.res.syms[n] = sym
		return cost
	}
	sym := &symbol{name: n.name, t: t, where: varLocal}
	vf.sc.vars[n.name], vf.res.syms[n] = sym, sym
	if v, ok := vf.constIntOf(n.init); ok && t == TInt {
		vf.consts[sym] = v
	}
	return cost
}

// initCompatible mirrors the interpreter's coerce: int and float
// initialize each other (with truncation), bool and string are strict.
func initCompatible(decl, init Type) bool {
	switch decl {
	case TInt, TFloat:
		return init == TInt || init == TFloat
	default:
		return decl == init
	}
}

func (vf *verifier) checkAssign(n *assignStmt) int {
	sym := vf.resolveVar(n.name)
	et, cost := vf.checkExpr(n.val)
	cost = addCost(1, cost)
	if sym == nil {
		vf.report(PassTypecheck, n.line, "assignment to undeclared variable %q", n.name)
		return cost
	}
	if sym.where == varBinding {
		vf.report(PassTypecheck, n.line, "cannot assign to host binding %q", n.name)
		return cost
	}
	vf.res.syms[n] = sym
	vt, where := sym.t, sym.where
	if et == TInvalid || vt == TInvalid {
		return cost
	}
	if n.op == "=" {
		// Plain assignment replaces the value without coercion at
		// runtime, so the types must match exactly or the variable's
		// static type would be a lie.
		if et != vt {
			vf.report(PassTypecheck, n.line, "cannot assign %s to %s %q", et, vt, n.name)
			return cost
		}
	} else {
		binOp := strings.TrimSuffix(n.op, "=")
		rt := vf.binaryResultType(binOp, vt, et, n.line)
		if rt == TInvalid {
			return cost
		}
		if rt != vt {
			vf.report(PassTypecheck, n.line, "%s changes %s %q to %s", n.op, vt, n.name, rt)
			return cost
		}
	}
	vf.checkStringGrowth(n, vt, where)
	delete(vf.consts, sym)
	if v, ok := vf.constIntOf(n.val); ok && n.op == "=" && where == varLocal {
		vf.consts[sym] = v
	}
	return cost
}

// checkStringGrowth is the noalloc pass's assignment rule: appending to
// any string inside a loop allocates per iteration, and appending to a
// static string anywhere grows it without bound across events (statics
// persist for the analyzer's lifetime).
func (vf *verifier) checkStringGrowth(n *assignStmt, vt Type, where varWhere) {
	if vt != TString {
		return
	}
	grows := n.op == "+="
	if !grows && n.op == "=" {
		grows = vf.containsStringConcat(n.val)
	}
	if !grows {
		return
	}
	if where == varStatic {
		vf.reportChain(PassNoAlloc, n.line,
			[]diag.ChainFrame{vf.frame(n.line, fmt.Sprintf("static %q persists across events; every event appends", n.name))},
			"static string %q grows without bound", n.name)
		return
	}
	if len(vf.loops) > 0 {
		loopLine := vf.loops[len(vf.loops)-1]
		vf.reportChain(PassNoAlloc, n.line,
			[]diag.ChainFrame{vf.frame(loopLine, "enclosing loop starts here")},
			"string concatenation in a loop allocates per iteration")
	}
}

// containsStringConcat reports whether e contains a string "+".
func (vf *verifier) containsStringConcat(e expr) bool {
	b, ok := e.(*binaryExpr)
	if !ok {
		return false
	}
	if b.op == "+" {
		if vf.res.types[b.l] == TString {
			return true
		}
	}
	return vf.containsStringConcat(b.l) || vf.containsStringConcat(b.r)
}

type varWhere uint8

const (
	varLocal varWhere = iota
	varStatic
	varBinding
)

// resolveVar finds a name the way the interpreter does: scope chain
// first (which includes host bindings at the root), then statics. It
// returns nil for a name nothing declares.
func (vf *verifier) resolveVar(name string) *symbol {
	for cur := vf.sc; cur != nil; cur = cur.parent {
		if s, ok := cur.vars[name]; ok {
			return s
		}
	}
	return vf.statics[name]
}

// constIntOf statically evaluates an int expression: literals, known
// constants, unary minus, and the four int arithmetic ops.
func (vf *verifier) constIntOf(e expr) (int64, bool) {
	switch n := e.(type) {
	case *intLit:
		return n.v, true
	case *identExpr:
		v, ok := vf.consts[vf.res.syms[n]]
		return v, ok
	case *unaryExpr:
		if n.op == "-" {
			if v, ok := vf.constIntOf(n.x); ok {
				return -v, true
			}
		}
	case *binaryExpr:
		l, lok := vf.constIntOf(n.l)
		r, rok := vf.constIntOf(n.r)
		if lok && rok {
			switch n.op {
			case "+":
				return l + r, true
			case "-":
				return l - r, true
			case "*":
				return l * r, true
			case "/":
				if r != 0 {
					return l / r, true
				}
			case "%":
				if r != 0 {
					return l % r, true
				}
			}
		}
	}
	return 0, false
}

// clearAssigned forgets the known value of every variable a statement
// list may write (after a conditional branch, and around a loop). A
// declaration is a fresh symbol and clears nothing. A checked assignment
// clears the symbol it resolved to; one in a loop body not yet checked
// resolves in the scope at hand, which can only forget too much.
func (vf *verifier) clearAssigned(stmts []stmt) {
	for _, s := range stmts {
		switch n := s.(type) {
		case *assignStmt:
			sym := vf.res.syms[n]
			if sym == nil {
				sym = vf.resolveVar(n.name)
			}
			delete(vf.consts, sym)
		case *ifStmt:
			vf.clearAssigned(n.then)
			vf.clearAssigned(n.els)
		case *forStmt:
			vf.clearAssigned(append([]stmt{n.init, n.post}, n.body...))
		}
	}
}

// checkFor verifies one loop: its bound (termination pass), its body,
// and its contribution to the worst-case cost.
func (vf *verifier) checkFor(n *forStmt) int {
	// This scope holds the init declaration for the whole loop; the body
	// is a scope of its own inside it, entered fresh on every iteration,
	// so cond and post never see a body declaration and a body name has
	// one referent whichever iteration is running.
	vf.sc = &vscope{vars: map[string]*symbol{}, parent: vf.sc}
	defer func() { vf.sc = vf.sc.parent }()

	initCost := 0
	if n.init != nil {
		initCost = vf.checkStmt(n.init)
	}
	condCost := 0
	if n.cond != nil {
		ct, c := vf.checkExpr(n.cond)
		if ct != TBool && ct != TInvalid {
			vf.report(PassTypecheck, n.line, "for condition is %s, not bool", ct)
		}
		condCost = c
	}

	// The counter starts from its value at loop entry. What the body and
	// post write is unknown from the second iteration on: forget it
	// before the body, so nested loop bounds cannot lean on it, and again
	// after, because the loop may run zero times or break early. Only
	// then is the limit read, since the condition is re-evaluated on
	// every iteration.
	entry := maps.Clone(vf.consts)
	writes := append([]stmt{n.post}, n.body...)
	vf.clearAssigned(writes)
	vf.loops = append(vf.loops, n.line)
	bodyCost := vf.checkScoped(n.body)
	postCost := 0
	if n.post != nil {
		postCost = vf.checkStmt(n.post)
	}
	vf.loops = vf.loops[:len(vf.loops)-1]
	vf.clearAssigned(writes)

	iters, why, whyLine := vf.loopBound(n, entry)
	if iters < 0 {
		vf.reportChain(PassTermination, n.line,
			[]diag.ChainFrame{
				vf.frame(whyLine, why),
				vf.frame(n.line, "analyzers run per kernel event; the compiled fast path has no runtime step limit to fall back on"),
			},
			"loop is not provably bounded")
		iters = 0 // keep the cost estimate well-defined for the verdict
	}

	perIter := addCost(condCost, addCost(bodyCost, addCost(postCost, 1)))
	total := addCost(initCost, addCost(mulCost(perIter, iters), addCost(condCost, 1)))
	return total
}

// loopBound infers the worst-case iteration count of a loop from the
// pattern the verifier accepts: an int counter whose value at loop entry
// is statically known, a comparison against a statically known limit
// that no iteration writes, and exactly one unconditional constant-step
// update per iteration. entry holds the known values at loop entry; the
// limit is read from the current ones, with the loop's writes already
// forgotten. It returns -1 and a reason when no bound can be proven.
func (vf *verifier) loopBound(n *forStmt, entry map[*symbol]int64) (iters int64, why string, whyLine int) {
	if n.cond == nil {
		return -1, "loop has no condition", n.line
	}
	cmp, ok := n.cond.(*binaryExpr)
	if !ok {
		return -1, "loop condition is not a comparison the verifier can bound", n.line
	}
	// Mirror the comparison if need be so the counter is on the left.
	side, limitExpr, op := cmp.l, cmp.r, cmp.op
	if vf.isIntIdent(side) == nil {
		side, limitExpr = cmp.r, cmp.l
		op = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}[cmp.op]
	}
	counter := vf.isIntIdent(side)
	if counter == nil {
		return -1, "loop condition does not compare an int counter against a constant", cmp.line
	}
	limit, ok := vf.constIntOf(limitExpr)
	if !ok {
		return -1, fmt.Sprintf("loop limit %s is not a statically known int", exprDesc(limitExpr)), cmp.line
	}
	switch op {
	case "<", "<=", ">", ">=":
	default:
		return -1, fmt.Sprintf("comparison %q does not bound the counter", cmp.op), cmp.line
	}

	start, ok := entry[counter]
	if !ok {
		return -1, fmt.Sprintf("counter %q has no statically known initial value", counter.name), side.(*identExpr).line
	}

	step, stepOK, extraWrite := vf.loopStep(counter, n)
	if extraWrite {
		return -1, fmt.Sprintf("counter %q is reassigned inside the loop body", counter.name), n.line
	}
	if !stepOK {
		return -1, fmt.Sprintf("no unconditional constant step for counter %q", counter.name), n.line
	}
	if step == 0 {
		return -1, fmt.Sprintf("counter %q steps by zero", counter.name), n.line
	}
	if (op == "<" || op == "<=") && step < 0 {
		return -1, fmt.Sprintf("counter %q steps away from its bound", counter.name), n.line
	}
	if (op == ">" || op == ">=") && step > 0 {
		return -1, fmt.Sprintf("counter %q steps away from its bound", counter.name), n.line
	}
	// Within ±2^62 neither the span below nor the counter's last step
	// past the limit can wrap around the int range.
	for _, v := range [...]int64{start, limit, step} {
		if v <= -1<<62 || v >= 1<<62 {
			return -1, fmt.Sprintf("counter %q runs too close to the int range to rule out wrapping", counter.name), n.line
		}
	}

	span := limit - start
	if op == ">" || op == ">=" {
		span, step = -span, -step
	}
	if op == "<=" || op == ">=" {
		span++ // the limit itself is in range
	}
	if span <= 0 {
		return 0, "", 0
	}
	return (span-1)/step + 1, "", 0
}

// loopStep finds the loop counter's per-iteration step: the post
// statement, or else exactly one top-level body update that no continue
// can skip, with a constant delta. extraWrite reports any other write to
// the counter. It runs after the body is checked and matches assignments
// by the symbol they resolved to, so a body declaration that reuses the
// counter's name is a variable of its own.
func (vf *verifier) loopStep(counter *symbol, n *forStmt) (step int64, ok, extraWrite bool) {
	skippable := false // a continue of this loop may have been taken
	var walk func(ss []stmt, uncond, nested bool)
	walk = func(ss []stmt, uncond, nested bool) {
		for _, s := range ss {
			switch a := s.(type) {
			case *assignStmt:
				if vf.res.syms[a] != counter {
					continue
				}
				var d int64
				lit, isLit := a.val.(*intLit)
				switch {
				case a.op == "+=" && isLit:
					d = lit.v
				case a.op == "-=" && isLit:
					d = -lit.v
				default:
					extraWrite = true
					continue
				}
				if !uncond || skippable || ok {
					// A second update, or a conditional one, leaves the
					// true per-iteration delta unknown.
					extraWrite = true
					continue
				}
				step, ok = d, true
			case *continueStmt:
				skippable = skippable || !nested
			case *ifStmt:
				walk(a.then, false, nested)
				walk(a.els, false, nested)
			case *forStmt:
				walk(append([]stmt{a.init, a.post}, a.body...), false, true)
			}
		}
	}
	if n.post != nil {
		walk([]stmt{n.post}, true, false)
		walk(n.body, false, false)
	} else {
		walk(n.body, true, false)
	}
	if extraWrite {
		return 0, false, true
	}
	return step, ok, false
}

// isIntIdent returns the symbol when e is an identifier resolved to an
// int, else nil.
func (vf *verifier) isIntIdent(e expr) *symbol {
	if id, ok := e.(*identExpr); ok {
		if s := vf.res.syms[id]; s != nil && s.t == TInt {
			return s
		}
	}
	return nil
}

func exprDesc(e expr) string {
	switch n := e.(type) {
	case *identExpr:
		return fmt.Sprintf("%q", n.name)
	case *fieldExpr:
		return fmt.Sprintf("%q", "."+n.field)
	}
	return "expression"
}

// checkExpr types an expression, reports violations, records the type
// in the resolution, and returns it plus the worst-case evaluation cost.
func (vf *verifier) checkExpr(e expr) (Type, int) {
	t, cost := vf.exprType(e)
	vf.res.types[e] = t
	return t, cost
}

func (vf *verifier) exprType(e expr) (Type, int) {
	switch n := e.(type) {
	case *intLit:
		return TInt, 1
	case *floatLit:
		return TFloat, 1
	case *boolLit:
		return TBool, 1
	case *stringLit:
		return TString, 1

	case *identExpr:
		sym := vf.resolveVar(n.name)
		if sym == nil {
			vf.report(PassTypecheck, n.line, "undefined variable %q", n.name)
			return TInvalid, 1
		}
		vf.res.syms[n] = sym
		return sym.t, 1

	case *fieldExpr:
		return vf.checkField(n)

	case *callExpr:
		return vf.checkCall(n)

	case *unaryExpr:
		t, c := vf.checkExpr(n.x)
		c = addCost(c, 1)
		switch n.op {
		case "-":
			if t == TInt || t == TFloat || t == TInvalid {
				return t, c
			}
			vf.report(PassTypecheck, n.line, "unary - on %s", t)
		case "!":
			if t == TBool || t == TInvalid {
				return TBool, c
			}
			vf.report(PassTypecheck, n.line, "unary ! on %s", t)
		}
		return TInvalid, c

	case *binaryExpr:
		lt, lc := vf.checkExpr(n.l)
		rt, rc := vf.checkExpr(n.r)
		cost := addCost(1, addCost(lc, rc))
		if lt == TInvalid || rt == TInvalid {
			return TInvalid, cost
		}
		t := vf.binaryResultType(n.op, lt, rt, n.line)
		if t == TString && n.op == "+" && len(vf.loops) > 0 {
			loopLine := vf.loops[len(vf.loops)-1]
			vf.reportChain(PassNoAlloc, n.line,
				[]diag.ChainFrame{vf.frame(loopLine, "enclosing loop starts here")},
				"string concatenation in a loop allocates per iteration")
		}
		return t, cost
	}
	return TInvalid, 1
}

func (vf *verifier) checkField(n *fieldExpr) (Type, int) {
	id, ok := n.recv.(*identExpr)
	if !ok {
		if t, _ := vf.checkExpr(n.recv); t != TInvalid {
			vf.report(PassTypecheck, n.line, "field access on non-record %s", t)
		}
		return TInvalid, 2
	}
	sym := vf.resolveVar(id.name)
	if sym == nil {
		vf.report(PassTypecheck, n.line, "undefined variable %q", id.name)
		return TInvalid, 2
	}
	if sym.t != TRecord {
		vf.report(PassTypecheck, n.line, "field access on %s %q (not a record)", sym.t, id.name)
		return TInvalid, 2
	}
	vf.res.syms[id] = sym
	// Only the environment's binding is record-typed.
	f, ok := vf.env.Binding.field(n.field)
	if !ok {
		vf.reportChain(PassTypecheck, n.line,
			[]diag.ChainFrame{vf.frame(n.line, "schema fields: "+strings.Join(vf.env.Binding.fieldNames(), ", "))},
			"record %q has no field %q", id.name, n.field)
		return TInvalid, 2
	}
	return f.typ, 2
}

func (vf *verifier) checkCall(n *callExpr) (Type, int) {
	cost := 1
	argTypes := make([]Type, len(n.args))
	for i, a := range n.args {
		t, c := vf.checkExpr(a)
		argTypes[i] = t
		cost = addCost(cost, c)
	}
	sig, ok := vf.env.builtin(n.name)
	if !ok {
		vf.report(PassTypecheck, n.line, "unknown function %q", n.name)
		return TInvalid, cost
	}
	if sig.Cost > 0 {
		cost = addCost(cost, sig.Cost)
	}
	if sig.Blocking {
		vf.reportChain(PassNoBlock, n.line,
			[]diag.ChainFrame{vf.frame(n.line, fmt.Sprintf("%s is classified blocking in the builtin table; analyzers run on the kernel event fast path", n.name))},
			"call to blocking builtin %q", n.name)
	}
	if sig.Variadic {
		if len(n.args) < len(sig.Params) {
			vf.report(PassTypecheck, n.line, "%s wants at least %d arg(s), got %d", n.name, len(sig.Params), len(n.args))
			return TInvalid, cost
		}
	} else if len(n.args) != len(sig.Params) {
		vf.report(PassTypecheck, n.line, "%s wants %d arg(s), got %d", n.name, len(sig.Params), len(n.args))
		return TInvalid, cost
	}
	bad := false
	for i, at := range argTypes {
		pk := sig.Params[min(i, len(sig.Params)-1)]
		if at == TInvalid {
			bad = true
			continue
		}
		switch pk {
		case PNum:
			if at != TInt && at != TFloat {
				vf.report(PassTypecheck, n.line, "%s arg %d is %s, want int or float", n.name, i+1, at)
				bad = true
			}
		case PString:
			if at != TString {
				vf.report(PassTypecheck, n.line, "%s arg %d is %s, want string", n.name, i+1, at)
				bad = true
			}
		}
	}
	if bad {
		return TInvalid, cost
	}
	switch sig.Result {
	case RInt:
		return TInt, cost
	case RFloat:
		return TFloat, cost
	case RBool:
		return TBool, cost
	case RString:
		return TString, cost
	case RArg0:
		if len(argTypes) == 0 {
			return TInvalid, cost
		}
		if sig.Variadic {
			// The runtime returns whichever argument wins, so a mixed
			// int/float argument list has no single static type.
			for _, at := range argTypes[1:] {
				if at != argTypes[0] {
					vf.report(PassTypecheck, n.line, "%s arguments mix %s and %s; use one numeric type", n.name, argTypes[0], at)
					return TInvalid, cost
				}
			}
		}
		return argTypes[0], cost
	}
	return TInvalid, cost
}

// binaryResultType mirrors evalBinary's dynamic rules statically.
func (vf *verifier) binaryResultType(op string, l, r Type, line int) Type {
	switch op {
	case "&&", "||":
		if l == TBool && r == TBool {
			return TBool
		}
		vf.report(PassTypecheck, line, "%s on %s and %s", op, l, r)
		return TInvalid
	}
	if l == TString || r == TString {
		if l != r {
			vf.report(PassTypecheck, line, "mixed %s/%s operands", l, r)
			return TInvalid
		}
		switch op {
		case "+":
			return TString
		case "==", "!=", "<", "<=", ">", ">=":
			return TBool
		}
		vf.report(PassTypecheck, line, "op %q not defined on strings", op)
		return TInvalid
	}
	if l == TBool || r == TBool {
		if l != r {
			vf.report(PassTypecheck, line, "mixed %s/%s operands", l, r)
			return TInvalid
		}
		switch op {
		case "==", "!=":
			return TBool
		}
		vf.report(PassTypecheck, line, "op %q not defined on bools", op)
		return TInvalid
	}
	if l == TRecord || r == TRecord {
		vf.report(PassTypecheck, line, "op %q on a record", op)
		return TInvalid
	}
	// Numeric.
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return TBool
	case "%":
		if l == TInt && r == TInt {
			return TInt
		}
		vf.report(PassTypecheck, line, "op %% wants int operands, got %s and %s", l, r)
		return TInvalid
	case "+", "-", "*", "/":
		if l == TInt && r == TInt {
			return TInt
		}
		return TFloat
	}
	vf.report(PassTypecheck, line, "unknown op %q", op)
	return TInvalid
}
