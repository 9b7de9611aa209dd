package lineproto

import (
	"fmt"
	"strings"
)

// Command is one verb of a line protocol, written down once: dispatch,
// the arity check, the usage error and the verb's line of "help" all
// come from this row.
type Command[T any] struct {
	// Name is the verb, one or two words: "recent", "cpa install".
	Name string
	// Args is the argument pattern, a token per argument, an optional one
	// in brackets: "<node> <lpa> interaction|class", "[n]". A line must
	// carry as many arguments as the pattern has tokens, give or take the
	// optional ones. A verb with no pattern has no usage to refuse a line
	// with: what follows its name is not counted.
	Args string
	// Help is the verb's one-line description.
	Help string
	// Run executes the verb on the server's state with the fields that
	// followed Name.
	Run func(on T, args []string) (string, error)
}

// Usage is the verb as an operator types it: name, then pattern.
func (c *Command[T]) Usage() string { return strings.TrimSuffix(c.Name+" "+c.Args, " ") }

// Lift makes rows that run on a T run on a U, through conv; a row whose
// conv fails answers with that error.
func Lift[T, U any](rows []Command[T], conv func(U) (T, error)) []Command[U] {
	out := make([]Command[U], len(rows))
	for i, r := range rows {
		run := r.Run
		out[i] = Command[U]{r.Name, r.Args, r.Help, func(on U, args []string) (string, error) {
			t, err := conv(on)
			if err != nil {
				return "", err
			}
			return run(t, args)
		}}
	}
	return out
}

// Table is the command set of one server. Besides its rows it answers
// "help", with Help.
type Table[T any] struct {
	// Pkg prefixes every error the table itself makes ("controller");
	// Noun is what the protocol calls a line, as in "empty command" and
	// "unknown command"; Unknown, when set, is what it calls an unknown
	// verb instead.
	Pkg, Noun, Unknown string
	Rows               []Command[T]
}

// Run executes one command line, given as its fields (strings.Fields).
// Finding the row allocates nothing.
func (t *Table[T]) Run(on T, fields []string) (string, error) {
	if len(fields) == 0 {
		return "", fmt.Errorf("%s: empty %s", t.Pkg, t.Noun)
	}
	group := false // fields[0] opens two-word verbs
	for i := range t.Rows {
		row := &t.Rows[i]
		verb, sub, two := strings.Cut(row.Name, " ")
		if verb != fields[0] {
			continue
		}
		args := fields[1:]
		if two {
			if group = true; len(args) == 0 || args[0] != sub {
				continue
			}
			args = args[1:]
		}
		if lo, hi := arity(row.Args); row.Args != "" && (len(args) < lo || len(args) > hi) {
			return "", fmt.Errorf("%s: usage: %s", t.Pkg, row.Usage())
		}
		return row.Run(on, args)
	}
	switch {
	case group && len(fields) == 1:
		var subs []string
		for i := range t.Rows {
			if verb, sub, _ := strings.Cut(t.Rows[i].Name, " "); verb == fields[0] {
				subs = append(subs, sub)
			}
		}
		return "", fmt.Errorf("%s: usage: %s %s ...", t.Pkg, fields[0], strings.Join(subs, "|"))
	case group:
		return "", fmt.Errorf("%s: unknown %s %s %q", t.Pkg, fields[0], t.Noun, fields[1])
	case fields[0] == "help":
		return t.Help(), nil
	case t.Unknown != "":
		return "", fmt.Errorf("%s: unknown %s %q", t.Pkg, t.Unknown, fields[0])
	}
	return "", fmt.Errorf("%s: unknown %s %q", t.Pkg, t.Noun, fields[0])
}

// arity is the fewest and the most arguments a pattern admits.
func arity(pattern string) (lo, hi int) {
	for tok := ""; pattern != ""; hi++ {
		if tok, pattern, _ = strings.Cut(pattern, " "); !strings.HasPrefix(tok, "[") {
			lo++
		}
	}
	return lo, hi
}

// Help lists every verb the table answers, one "usage  description" line
// each, in table order.
func (t *Table[T]) Help() string {
	width := len("help")
	for i := range t.Rows {
		width = max(width, len(t.Rows[i].Usage()))
	}
	var sb strings.Builder
	for i := range t.Rows {
		fmt.Fprintf(&sb, "%-*s  %s\n", width, t.Rows[i].Usage(), t.Rows[i].Help)
	}
	fmt.Fprintf(&sb, "%-*s  %s", width, "help", "this list")
	return sb.String()
}

// SplitList splits a comma-separated list, trimming each item and
// dropping the empty ones.
func SplitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
