package controller

import (
	"bytes"
	"encoding/base64"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/ecode"
	"sysprof/internal/kprof"
)

type readWriter struct {
	r *strings.Reader
	w *bytes.Buffer
}

func (rw *readWriter) Read(p []byte) (int, error)  { return rw.r.Read(p) }
func (rw *readWriter) Write(p []byte) (int, error) { return rw.w.Write(p) }

func setup(t *testing.T) (*Controller, *kprof.Hub, *core.LPA) {
	t.Helper()
	hub := kprof.NewHub(1, func() time.Duration { return 0 })
	hub.SetPerEventCost(0)
	c := New(nil)
	if err := c.RegisterNode("n1", hub); err != nil {
		t.Fatal(err)
	}
	lpa := core.NewLPA(hub, core.Config{})
	if err := c.AttachLPA("n1", "main", lpa); err != nil {
		t.Fatal(err)
	}
	return c, hub, lpa
}

func TestRegisterDuplicateNode(t *testing.T) {
	c, hub, _ := setup(t)
	if err := c.RegisterNode("n1", hub); err == nil {
		t.Fatal("duplicate node registration allowed")
	}
}

func TestUnknownTargets(t *testing.T) {
	c, _, _ := setup(t)
	if _, err := c.Execute("granularity nope main class"); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Execute("window n1 nope 8"); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
	if err := c.RemoveCPA("n1", "nope"); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
}

// fakeFlusher stands in for a dissemination daemon.
type fakeFlusher struct {
	iv time.Duration
}

func (f *fakeFlusher) FlushInterval() time.Duration { return f.iv }
func (f *fakeFlusher) SetFlushInterval(iv time.Duration) error {
	if iv <= 0 {
		return errors.New("non-positive interval")
	}
	f.iv = iv
	return nil
}

func TestFlushIntervalKnob(t *testing.T) {
	c, _, _ := setup(t)
	fl := &fakeFlusher{iv: 500 * time.Millisecond}

	// Before a daemon is attached the knob reports unknown target.
	if _, err := c.Execute("flushinterval n1 1s"); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
	if err := c.AttachDaemon("nope", fl); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
	if err := c.AttachDaemon("n1", fl); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.Execute("flushinterval n1 2s"); err != nil || reply != "ok" {
		t.Fatalf("reply=%q err=%v", reply, err)
	}
	if fl.iv != 2*time.Second {
		t.Fatalf("interval = %v", fl.iv)
	}
	if _, err := c.Execute("flushinterval n1 bogus"); err == nil {
		t.Fatal("bad duration accepted")
	}
	if _, err := c.Execute("flushinterval n1"); err == nil {
		t.Fatal("missing args accepted")
	}
	if _, err := c.Execute("flushinterval n1 -5s"); err == nil {
		t.Fatal("negative interval accepted")
	}

	// Status shows the cadence once a daemon is attached.
	if !strings.Contains(c.Status(), "flush=2s") {
		t.Fatalf("status = %q", c.Status())
	}
}

func TestGranularityAndWindowKnobs(t *testing.T) {
	c, _, lpa := setup(t)
	if _, err := c.Execute("granularity n1 main class"); err != nil {
		t.Fatal(err)
	}
	if lpa.Granularity() != core.PerClass {
		t.Fatal("granularity not applied")
	}
	if _, err := c.Execute("window n1 main 7"); err != nil {
		t.Fatal(err)
	}
	if lpa.Window().Size() != 7 {
		t.Fatal("window size not applied")
	}
	if _, err := c.Execute("bufcap n1 main 9"); err != nil {
		t.Fatal(err)
	}
}

func TestSetEventMask(t *testing.T) {
	c, hub, _ := setup(t)
	if _, err := c.Execute("mask n1 main sched"); err != nil {
		t.Fatal(err)
	}
	if hub.Enabled(kprof.EvNetRx) {
		t.Fatal("net events still enabled after mask change")
	}
	if !hub.Enabled(kprof.EvCtxSwitch) {
		t.Fatal("sched events not enabled")
	}
}

func TestInstallRemoveCPA(t *testing.T) {
	var emitted []ecode.Arg
	hub := kprof.NewHub(1, func() time.Duration { return 0 })
	hub.SetPerEventCost(0)
	c := New(func(ch string, v ecode.Arg) { emitted = append(emitted, v) })
	if err := c.RegisterNode("n1", hub); err != nil {
		t.Fatal(err)
	}
	src := `emit("x", ev.bytes); return 0;`
	if err := c.InstallCPA("n1", "probe", src, kprof.MaskOf(kprof.EvNetRx)); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallCPA("n1", "probe", src, kprof.MaskOf(kprof.EvNetRx)); err == nil {
		t.Fatal("duplicate cpa allowed")
	}
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 77})
	if len(emitted) != 1 || emitted[0] != (ecode.Arg{T: ecode.TInt, Int: 77}) {
		t.Fatalf("emitted = %v", emitted)
	}
	if err := c.RemoveCPA("n1", "probe"); err != nil {
		t.Fatal(err)
	}
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 88})
	if len(emitted) != 1 {
		t.Fatal("removed cpa still running")
	}
	if err := c.InstallCPA("n1", "bad", "syntax error here", kprof.MaskAll()); err == nil {
		t.Fatal("bad source accepted")
	}
}

// TestInstallCPAConcurrentSameName: installs run their verify, compile
// and subscribe steps outside the controller lock, so N racing installs
// of one name all reach the hub; exactly one may stay. A loser left
// subscribed would run on every event forever, invisible to "cpa list"
// and "cpa remove".
func TestInstallCPAConcurrentSameName(t *testing.T) {
	var emitted atomic.Int64
	hub := kprof.NewHub(1, func() time.Duration { return 0 })
	hub.SetPerEventCost(0)
	c := New(func(string, ecode.Arg) { emitted.Add(1) })
	if err := c.RegisterNode("n1", hub); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	var installed atomic.Int64
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			err := c.InstallCPA("n1", "probe", `emit("x", ev.bytes); return 0;`, kprof.MaskOf(kprof.EvNetRx))
			if err == nil {
				installed.Add(1)
			} else if !strings.Contains(err.Error(), "already installed") {
				t.Errorf("loser's error = %v, want already installed", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if installed.Load() != 1 {
		t.Fatalf("%d of %d concurrent installs succeeded, want 1", installed.Load(), n)
	}
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 77})
	if got := emitted.Load(); got != 1 {
		t.Fatalf("one event reached %d subscribed analyzers, want 1", got)
	}
	if err := c.RemoveCPA("n1", "probe"); err != nil {
		t.Fatal(err)
	}
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 88})
	if got := emitted.Load(); got != 1 {
		t.Fatalf("after remove an analyzer still runs: %d emits", got)
	}
}

func TestExecuteCommands(t *testing.T) {
	c, _, lpa := setup(t)
	tests := []struct {
		cmd     string
		wantErr bool
	}{
		{"status", false},
		{"granularity n1 main class", false},
		{"granularity n1 main bogus", true},
		{"mask n1 main sched,net", false},
		{"mask n1 main nosuchgroup", true},
		{"window n1 main 33", false},
		{"window n1 main zero", true},
		{"bufcap n1 main 11", false},
		{"cpa install n1 p1 net c3RhdGljIGludCBuID0gMDsgbisrOyByZXR1cm4gbjs=", false}, // static int n = 0; n++; return n;
		{"cpa install n1 p1 net", true},
		{"cpa install n1 p2 net not*base64", true},
		{"cpa list n1", false},
		{"cpa remove n1 p1", false},
		{"cpa remove n1 p1", true},
		// The pre-base64 verbs are gone, not aliased.
		{"install-cpa n1 p1 net -- static int n = 0; n++; return n;", true},
		{"remove-cpa n1 p1", true},
		{"nosuchcommand", true},
		{"", true},
	}
	for _, tt := range tests {
		_, err := c.Execute(tt.cmd)
		if (err != nil) != tt.wantErr {
			t.Errorf("Execute(%q) err = %v, wantErr=%v", tt.cmd, err, tt.wantErr)
		}
	}
	if _, err := c.Execute("install-cpa n1 p1 net -- return 0;"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("install-cpa: err = %v, want unknown command", err)
	}
	if lpa.Window().Size() != 33 {
		t.Fatal("window command not applied")
	}
	if lpa.Granularity() != core.PerClass {
		t.Fatal("granularity command not applied")
	}
}

func TestStatusContents(t *testing.T) {
	c, hub, _ := setup(t)
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 10})
	out := c.Status()
	for _, want := range []string{"node n1", "lpa main", "granularity=interaction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("status missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "pubsub=") {
		t.Fatalf("status reports queue settings with no broker attached:\n%s", out)
	}

	// The broker's queue settings show once it is attached.
	if err := c.AttachBroker("n1", &fakeFanOut{depth: 256}); err != nil {
		t.Fatal(err)
	}
	if out := c.Status(); !strings.Contains(out, " pubsub=256\n") {
		t.Fatalf("status = %q", out)
	}
}

func TestServeConnProtocol(t *testing.T) {
	c, _, _ := setup(t)
	var out bytes.Buffer
	c.ServeConn(&readWriter{r: strings.NewReader("window n1 main 5\nnosuch\nstatus\n"), w: &out})
	text := out.String()
	if !strings.HasPrefix(text, "+ok\n.\n") {
		t.Fatalf("first reply wrong: %q", text)
	}
	if !strings.Contains(text, "-controller: unknown command") {
		t.Fatalf("error reply missing: %q", text)
	}
	if !strings.Contains(text, "node n1") {
		t.Fatalf("status reply missing: %q", text)
	}
}

func TestPIDFilterCommand(t *testing.T) {
	c, hub, lpa := setup(t)
	if _, err := c.Execute("pidfilter n1 main 7"); err != nil {
		t.Fatal(err)
	}
	// Events from other PIDs are pruned; PID 7 passes.
	hub.Emit(&kprof.Event{Type: kprof.EvSyscallEnter, PID: 8, Proc: "read"})
	hub.Emit(&kprof.Event{Type: kprof.EvSyscallEnter, PID: 7, Proc: "read"})
	if got := lpa.Stats().Events; got != 1 {
		t.Fatalf("events after filter = %d, want 1", got)
	}
	if _, err := c.Execute("pidfilter n1 main off"); err != nil {
		t.Fatal(err)
	}
	hub.Emit(&kprof.Event{Type: kprof.EvSyscallEnter, PID: 8, Proc: "read"})
	if got := lpa.Stats().Events; got != 2 {
		t.Fatalf("events after clearing = %d, want 2", got)
	}
	if _, err := c.Execute("pidfilter n1 main notanumber"); err == nil {
		t.Fatal("bad pid accepted")
	}
	if _, err := c.Execute("pidfilter n1 main"); err == nil {
		t.Fatal("short command accepted")
	}
}

// fakeFanOut stands in for a pub-sub broker.
type fakeFanOut struct {
	depth int
}

func (f *fakeFanOut) QueueConfig() int { return f.depth }
func (f *fakeFanOut) SetQueueDepth(n int) error {
	if n < 1 {
		return errors.New("depth must be positive")
	}
	f.depth = n
	return nil
}

func TestPubSubKnobs(t *testing.T) {
	c, _, _ := setup(t)
	fo := &fakeFanOut{depth: 256}

	// Before a broker is attached the knobs report unknown target.
	if _, err := c.Execute("pubsubqueue n1 64"); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
	if err := c.AttachBroker("nope", fo); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
	if err := c.AttachBroker("n1", fo); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.Execute("pubsubqueue n1 1024"); err != nil || reply != "ok" {
		t.Fatalf("reply=%q err=%v", reply, err)
	}
	if fo.depth != 1024 {
		t.Fatalf("depth = %d", fo.depth)
	}
	if _, err := c.Execute("pubsubqueue n1 0"); err == nil {
		t.Fatal("zero depth accepted")
	}
	if _, err := c.Execute("pubsubqueue n1"); err == nil {
		t.Fatal("missing args accepted")
	}
	// The broker decides what a full queue does: the retired policy verb
	// is an unknown command.
	if _, err := c.Execute("pubsubpolicy n1 block"); err == nil {
		t.Fatal("retired pubsubpolicy verb accepted")
	}

	// Status shows the fan-out config once a broker is attached.
	if !strings.Contains(c.Status(), " pubsub=1024\n") {
		t.Fatalf("status = %q", c.Status())
	}
}

// TestCPACommandFamily drives the base64 install path end to end: a
// verified analyzer installs onto the live hub and runs per event; list
// and remove manage it.
func TestCPACommandFamily(t *testing.T) {
	c, hub, _ := setup(t)
	src := `
static int big = 0;
if (ev.bytes > 1000) { big++; }
return big;
`
	b64 := base64.StdEncoding.EncodeToString([]byte(src))
	if reply, err := c.Execute("cpa install n1 watcher net " + b64); err != nil || reply != "ok" {
		t.Fatalf("install: %q, %v", reply, err)
	}
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 1500})
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 100})

	reply, err := c.Execute("cpa list n1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "cpa watcher:") || !strings.Contains(reply, "runs=2") ||
		!strings.Contains(reply, "cost=") {
		t.Fatalf("list = %q", reply)
	}
	if _, err := c.Execute("cpa remove n1 watcher"); err != nil {
		t.Fatal(err)
	}
	if reply, _ := c.Execute("cpa list n1"); !strings.Contains(reply, "no cpas") {
		t.Fatalf("list after remove = %q", reply)
	}
}

// TestCPAInstallRejectsHostile: the node-side verifier gates the wire
// install path; the error names the analyzer and the failing pass.
func TestCPAInstallRejectsHostile(t *testing.T) {
	c, _, _ := setup(t)
	b64 := base64.StdEncoding.EncodeToString([]byte(`while (true) { }`))
	_, err := c.Execute("cpa install n1 hostile all " + b64)
	if err == nil {
		t.Fatal("hostile analyzer accepted over the wire path")
	}
	if !strings.Contains(err.Error(), "hostile:1:1") || !strings.Contains(err.Error(), "termination") {
		t.Fatalf("rejection lacks evidence chain: %v", err)
	}
	// Nothing was installed.
	if reply, _ := c.Execute("cpa list n1"); !strings.Contains(reply, "no cpas") {
		t.Fatalf("list = %q", reply)
	}
}

// TestServeConnFlattensMultilineErrors: wire error replies must stay a
// single "-..." line even when the verifier verdict spans many.
func TestServeConnFlattensMultilineErrors(t *testing.T) {
	c, _, _ := setup(t)
	b64 := base64.StdEncoding.EncodeToString([]byte(`while (true) { sleep(1); }`))
	rw := &readWriter{r: strings.NewReader("cpa install n1 bad all " + b64 + "\n"), w: &bytes.Buffer{}}
	c.ServeConn(rw)
	out := rw.w.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "-") {
		t.Fatalf("error reply is not one line: %q", out)
	}
	if !strings.Contains(lines[0], "termination") || !strings.Contains(lines[0], " | ") {
		t.Fatalf("flattened reply lost the chain: %q", lines[0])
	}
}

// fakeNTP satisfies NTPMonitor for command-dispatch testing.
type fakeNTP struct {
	interval time.Duration
	forced   int
}

func (f *fakeNTP) Interval() time.Duration { return f.interval }
func (f *fakeNTP) SetInterval(d time.Duration) error {
	if d <= 0 {
		return errors.New("bad interval")
	}
	f.interval = d
	return nil
}
func (f *fakeNTP) RemeasureNow() (time.Duration, time.Duration) {
	f.forced++
	return 2 * time.Millisecond, 5 * time.Millisecond
}

func TestNTPIntervalCommand(t *testing.T) {
	c, _, _ := setup(t)
	if _, err := c.Execute("ntpinterval n1"); err == nil {
		t.Fatal("ntpinterval without an attached monitor should fail")
	}
	m := &fakeNTP{interval: 30 * time.Second}
	if err := c.AttachNTP("n1", m); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.Execute("ntpinterval n1"); err != nil || reply != "interval=30s" {
		t.Fatalf("query: %q, %v", reply, err)
	}
	if reply, err := c.Execute("ntpinterval n1 5s"); err != nil || reply != "ok" {
		t.Fatalf("set: %q, %v", reply, err)
	}
	if m.interval != 5*time.Second {
		t.Fatalf("interval = %v after set", m.interval)
	}
	if reply, err := c.Execute("ntpinterval n1 now"); err != nil || reply != "offset=2ms bound=5ms" {
		t.Fatalf("now: %q, %v", reply, err)
	}
	if m.forced != 1 {
		t.Fatalf("forced = %d", m.forced)
	}
	if _, err := c.Execute("ntpinterval n1 -3s"); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, err := c.Execute("ntpinterval nosuch 5s"); err == nil {
		t.Fatal("unknown node accepted")
	}
	if !strings.Contains(c.Status(), "ntp=5s") {
		t.Fatalf("status missing ntp cadence:\n%s", c.Status())
	}
}

// TestHelpListsEveryRow: "help" is the command table's own listing (its
// format is lineproto's, pinned there), one line per row in table order
// and one for itself. Run with -v to print it (CI does, so a verb
// appearing or vanishing shows in the log of the PR that caused it).
func TestHelpListsEveryRow(t *testing.T) {
	reply, err := New(nil).Execute("help")
	if err != nil || reply != commands.Help() {
		t.Fatalf("help = %q, %v; want the table's listing", reply, err)
	}
	t.Logf("controller help:\n%s", reply)
	lines := strings.Split(reply, "\n")
	if len(lines) != len(commands.Rows)+1 {
		t.Fatalf("help has %d lines for %d rows and itself", len(lines), len(commands.Rows))
	}
	for i, row := range commands.Rows {
		if !strings.HasPrefix(lines[i], row.Usage()+" ") {
			t.Errorf("help line %d = %q, want the usage %q", i+1, lines[i], row.Usage())
		}
	}
}
