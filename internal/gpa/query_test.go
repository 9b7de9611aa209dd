package gpa

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
)

func seededGPA(t *testing.T) *GPA {
	t.Helper()
	g, _ := newGPA(Config{})
	g.Ingest(clientRec(1, 0))
	g.Ingest(serverRec(2, 0))
	r := serverRec(3, 20*time.Millisecond)
	r.Class = "port:443"
	r.UserTime = 5 * time.Millisecond
	g.Ingest(r)
	return g
}

func TestAccountingMergesAcrossNodes(t *testing.T) {
	g := seededGPA(t)
	rows := g.Accounting()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// port:443 has 5ms user time -> most CPU -> first row.
	if rows[0].Class != "port:443" || rows[0].CPUTime < 5*time.Millisecond {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	var total uint64
	for _, r := range rows {
		total += r.Interactions
	}
	if total != 3 {
		t.Fatalf("accounted interactions = %d, want 3", total)
	}
	out := g.RenderAccounting()
	if !strings.Contains(out, "port:443") || !strings.Contains(out, "class") {
		t.Fatalf("render = %q", out)
	}
}

func TestExecuteQueries(t *testing.T) {
	g := seededGPA(t)
	tests := []struct {
		cmd     string
		want    string
		wantErr bool
	}{
		{"stats", "correlated=1", false},
		{"nodes", "1 2", false},
		{"load 2", "node=2", false},
		{"load x", "", true},
		{"load", "", true},
		{"classes 2", "port:80", false},
		{"classes nope", "", true},
		{"accounting", "port:443", false},
		{"recent 5", "client=", false},
		{"recent zero", "", true},
		{"bogus", "", true},
		{"", "", true},
	}
	for _, tt := range tests {
		out, err := g.Execute(tt.cmd)
		if (err != nil) != tt.wantErr {
			t.Errorf("Execute(%q) err = %v", tt.cmd, err)
			continue
		}
		if !tt.wantErr && !strings.Contains(out, tt.want) {
			t.Errorf("Execute(%q) = %q, want containing %q", tt.cmd, out, tt.want)
		}
	}
}

func TestServeConnFraming(t *testing.T) {
	g := seededGPA(t)
	var out bytes.Buffer
	g.ServeConn(&rw{r: strings.NewReader("stats\nbogus\n"), w: &out})
	text := out.String()
	if !strings.HasPrefix(text, "+ingested=") {
		t.Fatalf("reply = %q", text)
	}
	if !strings.Contains(text, "\n.\n-gpa: unknown query") {
		t.Fatalf("framing wrong: %q", text)
	}
}

type rw struct {
	r *strings.Reader
	w *bytes.Buffer
}

func (x *rw) Read(p []byte) (int, error)  { return x.r.Read(p) }
func (x *rw) Write(p []byte) (int, error) { return x.w.Write(p) }

func TestServeOverTCP(t *testing.T) {
	g := seededGPA(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	defer l.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("load 2\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "+node=2") {
		t.Fatalf("reply = %q", buf[:n])
	}
}

func TestAccountingUsesCoreAggregates(t *testing.T) {
	// Sanity: the merge path goes through core.Aggregate.Merge.
	var a, b core.Aggregate
	a.Add(&core.Record{UserTime: time.Millisecond})
	b.Add(&core.Record{UserTime: 3 * time.Millisecond})
	a.Merge(&b)
	if a.Count != 2 || a.TotalUser != 4*time.Millisecond {
		t.Fatalf("merge = %+v", a)
	}
}

func TestFlowQuery(t *testing.T) {
	g := seededGPA(t)
	out, err := g.Execute("flow 1:1000 2:80")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "client=") || !strings.Contains(out, "network=") {
		t.Fatalf("flow reply = %q", out)
	}
	// Reverse direction matches the same canonical flow.
	rev, err := g.Execute("flow 2:80 1:1000")
	if err != nil || rev != out {
		t.Fatalf("reverse lookup differs: %q vs %q (%v)", rev, out, err)
	}
	// The "n" prefix form used by Addr.String also parses.
	if _, err := g.Execute("flow n1:1000 n2:80"); err != nil {
		t.Fatal(err)
	}
	empty, err := g.Execute("flow 9:9 8:8")
	if err != nil || !strings.Contains(empty, "no correlated") {
		t.Fatalf("empty flow reply = %q (%v)", empty, err)
	}
	for _, bad := range []string{"flow", "flow 1 2", "flow x:1 2:80", "flow 1:x 2:80"} {
		if _, err := g.Execute(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestHelpListsEveryRow: on an analyzer and on a frontend "help" is the
// server's command table's own listing (its format is lineproto's,
// pinned there), one line per row in table order and one for itself.
// Run with -v to print both (CI does, so a verb appearing or vanishing
// shows in the log of the PR that caused it).
func TestHelpListsEveryRow(t *testing.T) {
	check := func(server, reply string, err error, want string, usages []string) {
		t.Helper()
		if err != nil || reply != want {
			t.Fatalf("%s help = %q, %v; want the table's listing", server, reply, err)
		}
		t.Logf("%s help:\n%s", server, reply)
		lines := strings.Split(reply, "\n")
		if len(lines) != len(usages)+1 {
			t.Fatalf("%s help has %d lines for %d rows and itself", server, len(lines), len(usages))
		}
		for i, usage := range usages {
			if !strings.HasPrefix(lines[i], usage+" ") {
				t.Errorf("%s help line %d = %q, want the usage %q", server, i+1, lines[i], usage)
			}
		}
	}
	var usages []string
	for _, row := range analyzerCommands.Rows {
		usages = append(usages, row.Usage())
	}
	reply, err := seededGPA(t).Execute("help")
	check("gpa", reply, err, analyzerCommands.Help(), usages)

	usages = nil
	for _, row := range frontendCommands.Rows {
		usages = append(usages, row.Usage())
	}
	reply, err = newFedHarness(t, 1, Config{}).fe.Execute("help")
	check("frontend", reply, err, frontendCommands.Help(), usages)
}
