package lineproto

import (
	"errors"
	"strings"
	"testing"
)

// echo answers with what the handler was given, so a test sees which row
// ran and with which arguments.
func echo(name string) func(string, []string) (string, error) {
	return func(on string, args []string) (string, error) {
		return on + ":" + name + "(" + strings.Join(args, ",") + ")", nil
	}
}

var testTable = &Table[string]{Pkg: "srv", Noun: "command", Rows: []Command[string]{
	{"status", "", "everything", echo("status")},
	{"window", "<node> <n>", "resize", echo("window")},
	{"tail", "[n]", "last n", echo("tail")},
	{"ntp", "<node> [<duration>|now]", "cadence", echo("ntp")},
	{"cpa install", "<node> <name>", "install", echo("install")},
	{"cpa list", "<node>", "list", echo("list")},
}}

func TestTableRun(t *testing.T) {
	for _, tt := range []struct{ line, reply, err string }{
		{"status", "s:status()", ""},
		{"  status  extra  ", "s:status(extra)", ""}, // no pattern: not counted
		{"window n1 8", "s:window(n1,8)", ""},
		{"window n1", "", "srv: usage: window <node> <n>"},
		{"window n1 8 9", "", "srv: usage: window <node> <n>"},
		{"tail", "s:tail()", ""},
		{"tail 3", "s:tail(3)", ""},
		{"tail 3 4", "", "srv: usage: tail [n]"},
		{"ntp", "", "srv: usage: ntp <node> [<duration>|now]"},
		{"ntp n1", "s:ntp(n1)", ""},
		{"ntp n1 now", "s:ntp(n1,now)", ""},
		{"cpa install n1 p", "s:install(n1,p)", ""},
		{"cpa install n1", "", "srv: usage: cpa install <node> <name>"},
		{"cpa list n1", "s:list(n1)", ""},
		{"cpa", "", "srv: usage: cpa install|list ..."},
		{"cpa bogus n1", "", `srv: unknown cpa command "bogus"`},
		{"STATUS", "", `srv: unknown command "STATUS"`},
		{"install n1 p", "", `srv: unknown command "install"`},
		{"", "", "srv: empty command"},
		{" \t ", "", "srv: empty command"},
	} {
		reply, err := testTable.Run("s", strings.Fields(tt.line))
		if reply != tt.reply || (err == nil) != (tt.err == "") || err != nil && err.Error() != tt.err {
			t.Errorf("Run(%q) = %q, %v; want %q, %q", tt.line, reply, err, tt.reply, tt.err)
		}
	}

	federated := *testTable
	federated.Unknown = "federation command"
	if _, err := federated.Run("s", []string{"bogus"}); err == nil || err.Error() != `srv: unknown federation command "bogus"` {
		t.Errorf("unknown verb with Unknown set: %v", err)
	}
	if _, err := federated.Run("s", nil); err == nil || err.Error() != "srv: empty command" {
		t.Errorf("empty line with Unknown set: %v", err)
	}
}

func TestTableHelp(t *testing.T) {
	want := strings.Join([]string{
		"status                       everything",
		"window <node> <n>            resize",
		"tail [n]                     last n",
		"ntp <node> [<duration>|now]  cadence",
		"cpa install <node> <name>    install",
		"cpa list <node>              list",
		"help                         this list",
	}, "\n")
	if got := testTable.Help(); got != want {
		t.Errorf("Help() =\n%s\nwant\n%s", got, want)
	}
	if got, err := testTable.Run("s", []string{"help", "me"}); err != nil || got != want {
		t.Errorf("help verb = %q, %v", got, err)
	}
}

func TestLift(t *testing.T) {
	refuse := errors.New("not attached")
	lifted := &Table[int]{Pkg: "srv", Noun: "command", Rows: Lift(testTable.Rows, func(n int) (string, error) {
		if n < 0 {
			return "", refuse
		}
		return strings.Repeat("s", n), nil
	})}
	if reply, err := lifted.Run(2, []string{"window", "n1", "8"}); err != nil || reply != "ss:window(n1,8)" {
		t.Errorf("lifted row = %q, %v", reply, err)
	}
	if _, err := lifted.Run(-1, []string{"window", "n1", "8"}); err != refuse {
		t.Errorf("failed conversion: err = %v, want %v", err, refuse)
	}
	if _, err := lifted.Run(-1, []string{"window"}); err == nil || err == refuse {
		t.Errorf("arity is checked before the conversion: err = %v", err)
	}
	if lifted.Help() != testTable.Help() {
		t.Errorf("lifting changed the listing:\n%s", lifted.Help())
	}
}

// TestRunAllocatesNothing: finding the row and checking its arity costs
// no allocation — a frontend runs its table eight times per query-mix
// rotation.
func TestRunAllocatesNothing(t *testing.T) {
	quiet := &Table[int]{Pkg: "srv", Noun: "command", Rows: append(Lift(testTable.Rows, func(int) (string, error) { return "", nil }),
		Command[int]{"last one", "<a> [b]", "", func(int, []string) (string, error) { return "ok", nil }})}
	fields := []string{"last", "one", "x"}
	if allocs := testing.AllocsPerRun(100, func() {
		if reply, err := quiet.Run(1, fields); reply != "ok" || err != nil {
			t.Fatalf("Run = %q, %v", reply, err)
		}
	}); allocs != 0 {
		t.Fatalf("Run allocates %.0f times per command", allocs)
	}
}

func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":               nil,
		" , ,":           nil,
		"a:1":            {"a:1"},
		" a:1, ,b:2 ,,":  {"a:1", "b:2"},
		"a:1,b:2,c:3":    {"a:1", "b:2", "c:3"},
		"with space,x y": {"with space", "x y"},
	} {
		if got := SplitList(in); strings.Join(got, "|") != strings.Join(want, "|") || len(got) != len(want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}
