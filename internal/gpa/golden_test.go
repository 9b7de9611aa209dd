package gpa

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replies.golden from the replies this build gives")

// goldenSeed feeds h a small fixed history: 5 flows over three servers
// and two request classes, two interactions each, every cost field set.
func goldenSeed(h *fedHarness) {
	id := uint64(0)
	for f := 0; f < 5; f++ {
		fl := simnet.FlowKey{
			Src: simnet.Addr{Node: simnet.NodeID(10 + f), Port: uint16(1000 + f)},
			Dst: simnet.Addr{Node: simnet.NodeID(1 + f%3), Port: 80},
		}
		class := "port:80"
		if f%2 == 1 {
			class = "nfs:read"
		}
		for i := 0; i < 2; i++ {
			start := time.Duration(f*2+i) * time.Millisecond
			us := time.Duration(f+i+1) * time.Microsecond
			id++
			h.ingest(core.Record{
				ID: id, Node: fl.Src.Node, Flow: fl, Class: class,
				Start: start, End: start + 10*time.Millisecond,
				ReqPackets: 1, ReqBytes: 400 + 10*f, RespPackets: 2, RespBytes: 2900 + i,
				UserTime: 20 * us,
			})
			id++
			h.ingest(core.Record{
				ID: id, Node: fl.Dst.Node, Flow: fl, Class: class,
				Start: start + time.Millisecond, End: start + 8*time.Millisecond,
				ReqPackets: 1, ReqBytes: 400 + 10*f, RespPackets: 2, RespBytes: 2900 + i,
				ProtoTime: 10 * us, TxTime: 7 * us, BufferWait: 2 * time.Millisecond, SyscallTime: 5 * us,
				UserTime: 200 * us, BlockedTime: 50 * us,
				ServerPID: int32(100 + f), ServerProc: "httpd", CtxSwitches: uint64(3 + i), DiskOps: uint64(f),
			})
		}
	}
}

// goldenQueries is every verb of the query protocol with good and bad
// arguments. The admin verbs come last because they change state.
var goldenQueries = []string{
	"stats", "nodes", "load 1", "load 99", "classes 1", "classes 99",
	"recent 3", "recent 1000",
	"jstats", "jnodes", "jload 1", "jload 99", "jclasses",
	"jcorrelated", "jcorrelated 2", "pcorrelated", "pcorrelated 2",
	"federation",
	"", "   ", "bogus", "STATS",
	"load", "load x", "load 70000", "load 1 2", "classes", "classes -1",
	"recent", "recent 0", "recent x", "recent 1 2", "recent 99999999",
	"jload", "jload x", "jcorrelated 1 2", "jcorrelated 0", "pcorrelated x",
	"retention", "retention -1", "retention x", "retention 1000",
	"clockbound 1", "clockbound x 1s", "clockbound 1 -5s", "clockbound 1 zz", "clockbound 1 5ms",
}

// goldenLocalQueries are the verbs that, at the commit the golden file
// was captured from, only a single analyzer answered; through the
// frontend they are pinned against the monolithic analyzer instead
// (TestFrontendAccountingAndFlow).
var goldenLocalQueries = []string{
	"accounting", "flow 10:1000 1:80", "flow 1:80 10:1000", "flow n11:1001 n2:80", "flow 50:1 51:2",
	"flow", "flow 1:80", "flow a b", "flow 1:80 2:99999", "flow 1:x 2:80",
}

func goldenSection(sb *strings.Builder, title string, exec func(string) (string, error), queries []string) {
	fmt.Fprintf(sb, "## %s\n", title)
	for _, q := range queries {
		fmt.Fprintf(sb, "> %q\n", q)
		reply, err := exec(q)
		if err != nil {
			fmt.Fprintf(sb, "-%v\n", err)
			continue
		}
		sb.WriteString("+" + reply + "\n.\n")
	}
}

// TestRepliesGolden pins every reply of the query protocol byte for
// byte: GPA.Execute on a seeded analyzer, and Frontend.Execute over two
// shards fed the same records while both answer, with shard 1 dead (the
// text marker and the JSON envelope's partial status) and with both
// dead. testdata/replies.golden was captured before the two Execute
// switch statements became one dispatcher; -update rewrites it.
func TestRepliesGolden(t *testing.T) {
	h := newFedHarness(t, 2, Config{})
	goldenSeed(h)

	var sb strings.Builder
	goldenSection(&sb, "gpa", h.mono.Execute, append(append([]string(nil), goldenLocalQueries...), goldenQueries...))
	goldenSection(&sb, "frontend, 2/2 shards", h.fe.Execute, goldenQueries)
	h.kill(1)
	goldenSection(&sb, "frontend, shard 1 dead", h.fe.Execute, goldenQueries)
	h.kill(0)
	goldenSection(&sb, "frontend, all shards dead", h.fe.Execute, goldenQueries)
	got := sb.String()

	path := filepath.Join("testdata", "replies.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("replies differ from %s at line %d:\n got: %.300s\nwant: %.300s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("replies differ from %s in length: got %d lines, want %d", path, len(gl), len(wl))
}

// TestFrontendAccountingAndFlow: accounting and flow answer through the
// frontend from the merged aggregates and the merged stream, so over
// healthy shards every reply — errors included — is the monolithic
// analyzer's, and with a shard dead it is the surviving shard's own reply
// plus the partial marker.
func TestFrontendAccountingAndFlow(t *testing.T) {
	h := newFedHarness(t, 2, Config{})
	goldenSeed(h)
	for _, q := range goldenLocalQueries {
		want, wantErr := h.mono.Execute(q)
		got, err := h.fe.Execute(q)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%q through the frontend:\n got %q, %v\nwant %q, %v", q, got, err, want, wantErr)
		}
	}

	h.kill(1)
	const marker = "\n! partial: 1/2 shards answered; dead: 1 (connection refused)"
	for _, q := range goldenLocalQueries {
		want, wantErr := h.shards[0].Execute(q)
		if wantErr == nil {
			want += marker
		}
		got, err := h.fe.Execute(q)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%q with shard 1 dead:\n got %q, %v\nwant %q, %v", q, got, err, want, wantErr)
		}
	}

	h.kill(0)
	for _, q := range []string{"accounting", "flow 10:1000 1:80"} {
		if _, err := h.fe.Execute(q); !errors.Is(err, errAllShardsDead) {
			t.Errorf("%q with every shard dead: err = %v, want errAllShardsDead", q, err)
		}
	}
}
