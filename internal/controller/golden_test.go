package controller

import (
	"encoding/base64"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/kprof"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replies.golden from the replies this build gives")

// goldenCommands is every verb of the management protocol with good and
// bad arguments: wrong arity, unknown nodes and analyzers, out-of-range
// values. Replies that depend on what is attached differ by section.
func goldenCommands() []string {
	b64 := func(src string) string { return base64.StdEncoding.EncodeToString([]byte(src)) }
	counter := b64("static int n = 0; n++; return n;")
	return []string{
		"status", "status extra",
		"granularity n1 main class", "granularity n1 main interaction", "granularity n1 main bogus",
		"granularity n1 main", "granularity n1 main class extra", "granularity nope main class", "granularity n1 nope class",
		"mask n1 main sched,net", "mask n1 main none", "mask n1 main default", "mask n1 main nosuch",
		"mask n1 main", "mask nope main all",
		"window n1 main 33", "window n1 main 0", "window n1 main zero", "window n1 main 999999999999",
		"window n1", "window n1 nope 8",
		"bufcap n1 main 11", "bufcap n1 main -1", "bufcap", "bufcap nope main 4",
		"pidfilter n1 main 7", "pidfilter n1 main off", "pidfilter n1 main 0", "pidfilter n1 main 2147483648",
		"pidfilter n1 main 4294967296", "pidfilter n1 main x", "pidfilter n1 main", "pidfilter nope main 7",
		"flushinterval n1 2s", "flushinterval n1 0s", "flushinterval n1 -5s", "flushinterval n1 bogus",
		"flushinterval n1", "flushinterval nope 1s",
		"ntpinterval n1", "ntpinterval n1 5s", "ntpinterval n1 now", "ntpinterval n1 -3s", "ntpinterval n1 zz",
		"ntpinterval", "ntpinterval n1 5s extra", "ntpinterval nope",
		"pubsubqueue n1 1024", "pubsubqueue n1 0", "pubsubqueue n1 4294967297", "pubsubqueue n1", "pubsubqueue nope 8",
		"pubsubpolicy n1 block", "pubsubpolicy n1 bogus", "pubsubpolicy n1", "pubsubpolicy nope drop",
		"cpa", "cpa bogus", "cpa list n1",
		"cpa install n1 p1 net " + counter, "cpa install n1 p1 net " + counter,
		"cpa install n1 p2 net not*base64", "cpa install n1 p2 nosuch " + counter, "cpa install n1 p2 net",
		"cpa install nope p2 net " + counter, "cpa install n1 hostile all " + b64("while (true) { }"),
		"cpa list n1", "cpa list", "cpa list nope", "status",
		"cpa remove n1 p1", "cpa remove n1 p1", "cpa remove n1", "cpa remove nope p1", "cpa list n1",
		"federation status", "federation retention 5000", "federation clockbound 2 600ms",
		"install-cpa n1 p1 net -- return 0;", "nosuchcommand", "STATUS", "", "   ",
		"status",
	}
}

func goldenSection(sb *strings.Builder, title string, c *Controller, commands []string) {
	fmt.Fprintf(sb, "## %s\n", title)
	for _, cmd := range commands {
		fmt.Fprintf(sb, "> %q\n", cmd)
		reply, err := c.Execute(cmd)
		if err != nil {
			fmt.Fprintf(sb, "-%v\n", err)
			continue
		}
		sb.WriteString("+" + reply + "\n.\n")
	}
}

// TestRepliesGolden pins every reply of the management protocol byte
// for byte on three controllers: an empty one, one with a node and an
// analyzer but no daemon, broker or clock monitor, and one
// with everything attached. testdata/replies.golden was captured from
// the switch statement Execute used to be; -update rewrites it.
func TestRepliesGolden(t *testing.T) {
	node := func() *Controller {
		hub := kprof.NewHub(1, func() time.Duration { return 0 })
		hub.SetPerEventCost(0)
		c := New(nil)
		if err := c.RegisterNode("n1", hub); err != nil {
			t.Fatal(err)
		}
		if err := c.AttachLPA("n1", "main", core.NewLPA(hub, core.Config{})); err != nil {
			t.Fatal(err)
		}
		return c
	}
	full := node()
	for _, err := range []error{
		full.AttachDaemon("n1", &fakeFlusher{iv: 250 * time.Millisecond}),
		full.AttachBroker("n1", &fakeFanOut{depth: 256}),
		full.AttachNTP("n1", &fakeNTP{interval: 30 * time.Second}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	goldenSection(&sb, "empty controller", New(nil), goldenCommands())
	goldenSection(&sb, "node n1 with lpa main, nothing else attached", node(), goldenCommands())
	goldenSection(&sb, "daemon, broker and ntp attached", full, goldenCommands())
	goldenSection(&sb, "help", New(nil), []string{"help"})
	got := sb.String()

	path := filepath.Join("testdata", "replies.golden")
	if *updateGolden {
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
