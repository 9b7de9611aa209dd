package ecode

import (
	"fmt"
	"strings"
)

// Value is an E-Code runtime value: int64, float64, bool, string, or a
// Record (for host-bound structured data like kernel events).
type Value = any

// Record exposes named fields to E-Code programs (e.g. the kernel event
// bound as "ev").
type Record interface {
	Field(name string) (Value, bool)
}

// MapRecord adapts a map to the Record interface.
type MapRecord map[string]Value

// Field implements Record.
func (m MapRecord) Field(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}

// Builtin is a host-provided function callable from programs.
type Builtin func(args []Value) (Value, error)

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

func defaultBuiltins() map[string]Builtin {
	return map[string]Builtin{
		"len": func(args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("len wants 1 arg")
			}
			s, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("len wants a string")
			}
			return int64(len(s)), nil
		},
		"abs": func(args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("abs wants 1 arg")
			}
			switch v := args[0].(type) {
			case int64:
				if v < 0 {
					return -v, nil
				}
				return v, nil
			case float64:
				if v < 0 {
					return -v, nil
				}
				return v, nil
			}
			return nil, fmt.Errorf("abs wants a number")
		},
		"min": minMax(true),
		"max": minMax(false),
		"contains": func(args []Value) (Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("contains wants 2 args")
			}
			s, ok1 := args[0].(string)
			sub, ok2 := args[1].(string)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("contains wants strings")
			}
			return strings.Contains(s, sub), nil
		},
	}
}

func minMax(isMin bool) Builtin {
	return func(args []Value) (Value, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("min/max want at least 1 arg")
		}
		best := args[0]
		for _, a := range args[1:] {
			less, err := lessThan(a, best)
			if err != nil {
				return nil, err
			}
			if less == isMin {
				best = a
			}
		}
		return best, nil
	}
}

func lessThan(a, b Value) (bool, error) {
	af, aIsF := toFloat(a)
	bf, bIsF := toFloat(b)
	if aIsF && bIsF {
		return af < bf, nil
	}
	return false, fmt.Errorf("cannot compare %T and %T", a, b)
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

// control-flow signals a statement hands back to its enclosing block.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)
