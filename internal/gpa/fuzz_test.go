package gpa

import (
	"testing"
	"time"
)

// FuzzQuery throws arbitrary command lines at the GPA query protocol
// over a seeded instance. Properties: Execute never panics, an error
// reply carries no payload, the same line answers the same way twice,
// and queries are read-only — the correlation stats are unchanged
// afterwards.
func FuzzQuery(f *testing.F) {
	// Every verb as its usage line spells it, then arguments that parse.
	for _, row := range analyzerCommands.Rows {
		f.Add(row.Usage())
	}
	for _, s := range []string{
		"help", "load 2", "classes 2", "flow 1:1000 2:80", "recent 5", "jload 2",
		"jcorrelated 3", "pcorrelated 2", "", " ", "load x", "recent -1", "bogus arg",
	} {
		f.Add(s)
	}

	g, _ := newGPA(Config{})
	g.Ingest(clientRec(1, 0))
	g.Ingest(serverRec(2, 0))
	r := serverRec(3, 20*time.Millisecond)
	r.Class = "port:443"
	r.UserTime = 5 * time.Millisecond
	g.Ingest(r)
	before := g.StatsSnapshot()

	f.Fuzz(func(t *testing.T, line string) {
		if len(line) > 4096 {
			t.Skip()
		}
		out, err := g.Execute(line)
		if err != nil && out != "" {
			t.Fatalf("Execute(%q) returned both output %q and error %v", line, out, err)
		}
		out2, err2 := g.Execute(line)
		if out2 != out || (err2 == nil) != (err == nil) {
			t.Fatalf("Execute(%q) not deterministic: %q/%v then %q/%v", line, out, err, out2, err2)
		}
		if after := g.StatsSnapshot(); after != before {
			t.Fatalf("Execute(%q) mutated GPA state: %+v -> %+v", line, before, after)
		}
	})
}
