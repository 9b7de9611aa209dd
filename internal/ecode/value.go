package ecode

import (
	"fmt"
	"sort"
	"strings"
)

// Value is an E-Code value boxed, as Run and Static return it: an
// int64, float64, bool or string. Arg.Value also boxes emit's record
// payload, as the host pointer Run was handed.
type Value = any

// Arg is a builtin's argument or result, unboxed: the static type the
// verifier gave it and the one field that type fills; the others are
// zero. A record (emit's PAny payload) is held as the host pointer Run
// was handed, so no value crosses a builtin call boxed.
type Arg struct {
	T     Type
	Int   int64
	Float float64
	Bool  bool
	Str   string
	Rec   any
}

// Value boxes a: a scalar as Run returns it, a record as Rec holds it.
func (a Arg) Value() Value {
	switch a.T {
	case TInt:
		return a.Int
	case TFloat:
		return a.Float
	case TBool:
		return a.Bool
	case TString:
		return a.Str
	}
	return a.Rec
}

// Binding is one host record as programs see it — the kernel event
// bound as "ev", the interaction record bound as "rec": the name and an
// ordered field table. The table is the whole host interface. The
// verifier reads each row's name and type; CompileVerified makes the
// row's getter the field read itself, so a verified read is one typed
// call with no name to compare and no value to box; the reference
// interpreter reads the same rows by name.
type Binding struct {
	name   string
	host   string // the host type's name, for Run's error
	isHost func(any) bool
	fields []field
}

// field is a Field with the host type erased.
type field struct {
	name string
	typ  Type
	// read is the compiled form of reading this field off the machine's
	// host record: a cexpr[int64], cexpr[float64], cexpr[bool] or
	// cexpr[string], as typ says.
	read any
}

// Field is one row of a host record's field table: the name programs
// read it by, its static type, and a typed getter over the host struct
// H. Int, Float, Bool and Str build rows; Bind collects them.
type Field[H any] struct{ field }

func newField[H any, T scalar](name string, typ Type, get func(*H) T) Field[H] {
	read := cexpr[T](func(m *cmachine) (T, error) { return get(m.host.(*H)), nil })
	return Field[H]{field{name: name, typ: typ, read: read}}
}

// Int declares an int field.
func Int[H any](name string, get func(*H) int64) Field[H] { return newField(name, TInt, get) }

// Float declares a float field.
func Float[H any](name string, get func(*H) float64) Field[H] { return newField(name, TFloat, get) }

// Bool declares a bool field.
func Bool[H any](name string, get func(*H) bool) Field[H] { return newField(name, TBool, get) }

// Str declares a string field.
func Str[H any](name string, get func(*H) string) Field[H] { return newField(name, TString, get) }

// Bind declares that programs see a *H under name, with these fields.
func Bind[H any](name string, fields ...Field[H]) *Binding {
	r := &Binding{
		name:   name,
		host:   fmt.Sprintf("%T", (*H)(nil)),
		isHost: func(v any) bool { p, ok := v.(*H); return ok && p != nil },
		fields: make([]field, len(fields)),
	}
	for i, f := range fields {
		r.fields[i] = f.field
	}
	return r
}

// field finds a row by name. It runs when a program is verified or
// lowered, never per event.
func (r *Binding) field(name string) (field, bool) {
	for _, f := range r.fields {
		if f.name == name {
			return f, true
		}
	}
	return field{}, false
}

// fieldNames lists the table's names, sorted as diagnostics print them.
func (r *Binding) fieldNames() []string {
	names := make([]string, len(r.fields))
	for i, f := range r.fields {
		names[i] = f.name
	}
	sort.Strings(names)
	return names
}

// RuntimeError reports an execution problem with source position.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("ecode: line %d: %s", e.Line, e.Msg)
}

func rtErr(line int, format string, args ...any) error {
	return &RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Program is a parsed E-Code unit: the AST the verifier checks and
// CompileVerified lowers.
type Program struct {
	body []stmt
}

// standardBuiltins is every environment's builtin table. Besides the
// functions programs may call it declares the host's slow-path ones —
// sleep, readproc, log — which exist for offline E-Code tooling and are
// classified blocking, so the verifier rejects any analyzer that tries
// to call them per event; no verified program reaches their (absent)
// implementations. No body checks its arguments: the verifier has.
var standardBuiltins = map[string]Builtin{
	"len": {Params: []ParamKind{PString}, Result: RInt, Cost: 1, Fn: func(args []Arg) Arg {
		return Arg{T: TInt, Int: int64(len(args[0].Str))}
	}},
	"abs": {Params: []ParamKind{PNum}, Result: RArg0, Cost: 1, Fn: func(args []Arg) Arg {
		a := args[0] // an int's Float and a float's Int are zero
		if a.Int < 0 {
			a.Int = -a.Int
		}
		if a.Float < 0 {
			a.Float = -a.Float
		}
		return a
	}},
	"min": {Params: []ParamKind{PNum}, Variadic: true, Result: RArg0, Cost: 2, Fn: minMax(true)},
	"max": {Params: []ParamKind{PNum}, Variadic: true, Result: RArg0, Cost: 2, Fn: minMax(false)},
	"contains": {Params: []ParamKind{PString, PString}, Result: RBool, Cost: 8, Fn: func(args []Arg) Arg {
		return Arg{T: TBool, Bool: strings.Contains(args[0].Str, args[1].Str)}
	}},

	"sleep":    {Params: []ParamKind{PNum}, Result: RInt, Blocking: true, Cost: 1},
	"readproc": {Params: []ParamKind{PString}, Result: RString, Blocking: true, Cost: 1},
	"log":      {Params: []ParamKind{PString}, Result: RInt, Blocking: true, Cost: 1},
}

// minMax picks the least (isMin) or the greatest argument. The verifier
// has given every argument the first one's type, so ints compare as
// ints, exactly.
func minMax(isMin bool) func([]Arg) Arg {
	return func(args []Arg) Arg {
		best := args[0]
		for _, a := range args[1:] {
			less := a.Float < best.Float
			if a.T == TInt {
				less = a.Int < best.Int
			}
			if less == isMin {
				best = a
			}
		}
		return best
	}
}

// control-flow signals a statement hands back to its enclosing block.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)
