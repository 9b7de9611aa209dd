package core

import (
	"strings"
	"testing"
	"time"

	"sysprof/internal/ecode"
	"sysprof/internal/kprof"
	"sysprof/internal/simnet"
)

func cpaHub() (*kprof.Hub, *time.Duration) {
	now := new(time.Duration)
	h := kprof.NewHub(3, func() time.Duration { return *now })
	h.SetPerEventCost(0)
	return h, now
}

func TestCPACountsEvents(t *testing.T) {
	hub, _ := cpaHub()
	src := `
		static int big = 0;
		if (ev.type == "net_rx" && ev.bytes > 1000) { big++; }
		return big;
	`
	cpa, err := NewCPA(hub, "bigpackets", src, kprof.MaskOf(kprof.EvNetRx), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cpa.Close()
	for _, b := range []int32{100, 1500, 1501, 900} {
		hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: b})
	}
	if v, ok := cpa.Static("big"); !ok || v != int64(2) {
		t.Fatalf("big = %v, %v", v, ok)
	}
	runs, errs, _ := cpa.Stats()
	if runs != 4 || errs != 0 {
		t.Fatalf("runs=%d errs=%d", runs, errs)
	}
}

func TestCPAEmit(t *testing.T) {
	hub, _ := cpaHub()
	var channels []string
	var values []ecode.Arg
	src := `
		if (ev.bytes > 10) { emit("alerts", ev.bytes); }
		return 0;
	`
	cpa, err := NewCPA(hub, "alerter", src, kprof.MaskOf(kprof.EvNetRx),
		func(ch string, v ecode.Arg) {
			channels = append(channels, ch)
			values = append(values, v)
		})
	if err != nil {
		t.Fatal(err)
	}
	defer cpa.Close()
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 5})
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 50})
	if len(channels) != 1 || channels[0] != "alerts" || values[0] != (ecode.Arg{T: ecode.TInt, Int: 50}) {
		t.Fatalf("emits: %v %v", channels, values)
	}
}

func TestCPACompileError(t *testing.T) {
	hub, _ := cpaHub()
	if _, err := NewCPA(hub, "bad", "return 1 +;", kprof.MaskAll(), nil); err == nil {
		t.Fatal("compile error not surfaced")
	}
}

func TestCPARuntimeErrorsCounted(t *testing.T) {
	hub, _ := cpaHub()
	// Verifier-clean but faults at runtime when bytes is zero.
	cpa, err := NewCPA(hub, "faulty", "return 1000 / ev.bytes;", kprof.MaskOf(kprof.EvNetRx), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cpa.Close()
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Bytes: 0})
	_, errs, lastErr := cpa.Stats()
	if errs != 1 || lastErr == nil {
		t.Fatalf("errs=%d lastErr=%v", errs, lastErr)
	}
}

// TestCPAVerifierGatesInstall: the LPA re-verifies at install time —
// hostile programs never reach the hub, and the error carries the
// verifier's file:line evidence chain ("never trust the frontend").
func TestCPAVerifierGatesInstall(t *testing.T) {
	hub, _ := cpaHub()
	hostile := map[string]string{
		"unbounded": `static int n = 0; while (true) { n++; } return n;`,
		"blocking":  `sleep(10); return 0;`,
		"allocates": `static string s = ""; s += ev.proc; return 0;`,
		"badfield":  `return ev.nonexistent;`,
	}
	for name, src := range hostile {
		cpa, err := NewCPA(hub, name, src, kprof.MaskAll(), nil)
		if err == nil {
			cpa.Close()
			t.Errorf("%s: hostile analyzer installed", name)
			continue
		}
		if !strings.Contains(err.Error(), name+":") {
			t.Errorf("%s: rejection lacks file:line evidence: %v", name, err)
		}
	}
}

// TestCPAVerifyCPA: the frontend-side check shares the node's
// environment, so verdicts agree across the control channel.
func TestCPAVerifyCPA(t *testing.T) {
	v, err := VerifyCPA("ok", `emit("ch", ev.bytes); return 0;`)
	if err != nil || !v.OK {
		t.Fatalf("clean program rejected: %v\n%s", err, v.Render())
	}
	v, err = VerifyCPA("bad", `while (true) { }`)
	if err != nil || v.OK {
		t.Fatalf("unbounded program accepted: %v", err)
	}
	if v.Err() == nil {
		t.Fatal("rejected verdict has nil Err")
	}
}

// TestCPACostExposed: the verifier's worst-case estimate is visible for
// controller status lines.
func TestCPACostExposed(t *testing.T) {
	hub, _ := cpaHub()
	cpa, err := NewCPA(hub, "costly", `
int n = 0;
for (int i = 0; i < 100; i++) { n += i; }
return n;
`, kprof.MaskOf(kprof.EvNetRx), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cpa.Close()
	if cpa.Cost() < 100 {
		t.Errorf("Cost() = %d, want >= 100 for a 100-iteration loop", cpa.Cost())
	}
}

func TestCPAEventFieldSchema(t *testing.T) {
	hub, now := cpaHub()
	*now = 5 * time.Second
	src := `
		static int ok = 0;
		if (ev.type == "net_user_read" && ev.pid == 7 && ev.proc == "srv"
			&& ev.src_port == 99 && ev.dst_port == 80 && ev.aux == 1234
			&& ev.last && ev.node == 3 && ev.time >= 0) {
			ok = 1;
		}
		return ok;
	`
	cpa, err := NewCPA(hub, "schema", src, kprof.MaskOf(kprof.EvNetUserRead), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cpa.Close()
	hub.Emit(&kprof.Event{
		Type: kprof.EvNetUserRead, PID: 7, Proc: "srv",
		Flow: reqFlowWithPorts(99, 80), Aux: 1234, Last: true,
	})
	if v, _ := cpa.Static("ok"); v != int64(1) {
		runs, errs, lastErr := cpa.Stats()
		t.Fatalf("schema check failed: ok=%v runs=%d errs=%d err=%v", v, runs, errs, lastErr)
	}
}

func reqFlowWithPorts(src, dst uint16) (f simnet.FlowKey) {
	f.Src.Port = src
	f.Dst.Port = dst
	return f
}

// captureCPASource is the analyzer the end-to-end benchmark's
// capture-cpa workload installs (bench/e2e's cpaSource, the outlier
// detector of examples/custom-analyzer): the per-event cost that
// pipeline reports is this program's.
const captureCPASource = `
static int   n      = 0;
static float sum_ns = 0.0;

if (ev.type != "net_user_read") { return 0; }
n++;
sum_ns += ev.aux;
float mean = sum_ns / n;
if (n > 8 && ev.aux > mean * 2.0) {
	emit("latency.alerts", ev.aux);
}
return n;
`

// captureCPA installs captureCPASource, emitting to emit, and hands back
// the event the workload feeds it, for driving handle without the hub.
func captureCPA(tb testing.TB, emit EmitFunc) (*CPA, *kprof.Event) {
	hub, _ := cpaHub()
	cpa, err := NewCPA(hub, "latency-watch", captureCPASource, kprof.MaskOf(kprof.EvNetUserRead), emit)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cpa.Close)
	return cpa, &kprof.Event{Type: kprof.EvNetUserRead, PID: 7, Proc: "srv", Flow: reqFlowWithPorts(99, 80), Aux: 1234}
}

// BenchmarkCPAHandle is the per-event cost of an installed analyzer as a
// daemon pays it: handle on a net_user_read event, minus the hub.
func BenchmarkCPAHandle(b *testing.B) {
	cpa, ev := captureCPA(b, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cpa.handle(ev)
	}
}
