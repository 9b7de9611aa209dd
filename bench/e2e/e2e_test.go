package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"
)

// mkSlice builds a slice of 100 ops from its duration, CPU time and
// latency samples.
func mkSlice(dtMs, cpuMs float64, lat ...float64) slice {
	ms := int64(time.Millisecond)
	ws := winStats{lat: lat, marks: []mark{{}, {t: int64(dtMs * float64(ms)), ops: 100, cpu: int64(cpuMs * float64(ms)), lat: len(lat)}}}
	return cut(&ws, time.Millisecond, 0.9, false)[0]
}

func TestQuietKeepsTheBestQuarterOfEachMetric(t *testing.T) {
	// Eight slices: the two fastest are the 9 ms and 10 ms ones, the two
	// cheapest in CPU the 4 ms and 5 ms ones, the two lowest in latency the
	// ones whose samples are 1 and 2.
	slices := []slice{
		mkSlice(14, 9, 7), mkSlice(10, 8, 5), mkSlice(19, 5, 2), mkSlice(12, 7, 9),
		mkSlice(9, 10, 6), mkSlice(16, 4, 8), mkSlice(11, 6, 1), mkSlice(25, 12, 4),
	}
	if got := quiet("throughput_per_s", slices); len(got) != 2 || got[0].dt != 9e6 || got[1].dt != 10e6 {
		t.Errorf("throughput: quiet kept %+v, want the 9 ms and 10 ms slices", got)
	}
	if got := quiet("cpu_us_per_op", slices); len(got) != 2 || got[0].cpu != 4e6 || got[1].cpu != 5e6 {
		t.Errorf("cpu: quiet kept %+v, want the slices of 4 ms and 5 ms CPU", got)
	}
	for _, name := range []string{"latency_p50_ms", "latency_hi_ms"} {
		if got := quiet(name, slices); len(got) != 2 || got[0].lat[0] != 1 || got[1].lat[0] != 2 {
			t.Errorf("%s: quiet kept %+v, want the slices with latency 1 and 2", name, got)
		}
	}
	if got := quiet("cpu_us_per_op", slices[:5]); len(got) != 2 {
		t.Errorf("five slices: kept %d, want 2 (a quarter, rounded up)", len(got))
	}
	if got := quiet("cpu_us_per_op", slices[:1]); len(got) != 1 {
		t.Errorf("one slice: kept %d, want it", len(got))
	}
}

func TestReduceSumsSlicesAndPoolsLatencies(t *testing.T) {
	slices := []slice{mkSlice(10, 4, 3, 1, 2), mkSlice(30, 8, 5, 4)}
	// 200 ops in 40 ms, 12 ms of CPU, latencies 1..5.
	for name, want := range map[string]float64{"throughput_per_s": 5000, "cpu_us_per_op": 60, "latency_p50_ms": 3, "latency_hi_ms": 4} {
		if got, err := reduce(name, slices, 0.8, 0); err != nil || got != want {
			t.Errorf("reduce(%s) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := reduce("latency_hi_ms", slices[:1], 0.9, 10); err == nil {
		t.Error("p90 of three pooled samples was reported")
	}
}

func TestCutSlicesAWindowAtItsMarks(t *testing.T) {
	ms := int64(time.Millisecond)
	ws := winStats{
		lat: []float64{1, 2, 3, 4, 5, 6, 7},
		marks: []mark{
			{t: 0}, {t: 4 * ms, ops: 10, cpu: 1 * ms, lat: 1}, {t: 11 * ms, ops: 30, cpu: 5 * ms, lat: 3},
			{t: 15 * ms, ops: 40, cpu: 6 * ms, lat: 4}, {t: 22 * ms, ops: 70, cpu: 9 * ms, lat: 6},
			{t: 24 * ms, ops: 80, cpu: 10 * ms, lat: 7}, // a 2 ms tail: joins the slice before it
		},
	}
	got := cut(&ws, 10*time.Millisecond, 0.9, true)
	if len(got) != 2 {
		t.Fatalf("cut made %d slices, want 2: %+v", len(got), got)
	}
	a, b := got[0], got[1]
	if a.dt != 11*ms || a.ops != 30 || a.cpu != 5*ms || len(a.lat) != 3 || !a.traced {
		t.Errorf("first slice %+v, want 11 ms, 30 ops, 5 ms CPU, 3 samples", a)
	}
	if b.dt != 13*ms || b.ops != 50 || b.cpu != 5*ms || len(b.lat) != 4 || b.lat[3] != 7 || b.p50 != 5 || b.hi != 7 {
		t.Errorf("second slice %+v, want 13 ms, 50 ops, 5 ms CPU, samples 4..7", b)
	}
	if want := 50 / 0.013; b.thr < want-1e-6 || b.thr > want+1e-6 || b.cpuUs != 100 {
		t.Errorf("second slice derived thr %v cpu %v, want %v and 100", b.thr, b.cpuUs, want)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := make([]float64, 1009)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	// p99 of 1009 is rank 999: exactly 10 samples lie beyond it.
	if got, err := percentile(samples, 0.99, 10); err != nil || got != 999 {
		t.Errorf("p99 of 1009 = %v, %v; want 999", got, err)
	}
	if _, err := percentile(samples[:999], 0.99, 10); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was reported")
	}
	if _, err := percentile(samples[:99], 0.90, 10); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and was reported")
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("a percentile of no samples was reported")
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	vals := []float64{3, 1, 4, 2, 5, 10, 6, 9, 7, 8}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestFreezableClock(t *testing.T) {
	c := newFreezableClock()
	if c.now() != 0 {
		t.Fatalf("a new clock reads %v, want 0", c.now())
	}
	c.open()
	prev := c.now()
	for i := 0; i < 1000; i++ {
		now := c.now()
		if now < prev {
			t.Fatalf("clock went backwards: %v after %v", now, prev)
		}
		prev = now
	}
	time.Sleep(2 * time.Millisecond)
	c.freeze()
	frozen := c.now()
	if frozen < 2*time.Millisecond {
		t.Errorf("clock advanced %v over a 2 ms open stretch", frozen)
	}
	time.Sleep(2 * time.Millisecond)
	if got := c.now(); got != frozen {
		t.Errorf("frozen clock moved from %v to %v", frozen, got)
	}
	c.open()
	if got := c.now(); got < frozen || got > frozen+time.Millisecond {
		t.Errorf("reopened clock reads %v, want it to continue from %v", got, frozen)
	}
}

func TestCountingListenerAndConn(t *testing.T) {
	lis, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf[:2]); err != nil {
			done <- err
			return
		}
		if _, err := io.ReadFull(conn, buf[2:]); err != nil {
			done <- err
			return
		}
		_, err = conn.Write([]byte("pong"))
		done <- err
	}()
	var dialed connCounters
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := &countingConn{Conn: raw, c: &dialed}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a, r, rb, w, wb := lis.c.accepted.Load(), lis.c.reads.Load(), lis.c.readBytes.Load(), lis.c.writes.Load(), lis.c.writeBytes.Load(); a != 1 || r != 2 || rb != 5 || w != 1 || wb != 4 {
		t.Errorf("accepted side counted accepted=%d reads=%d/%dB writes=%d/%dB, want 1, 2/5B, 1/4B", a, r, rb, w, wb)
	}
	if w, wb, rb := dialed.writes.Load(), dialed.writeBytes.Load(), dialed.readBytes.Load(); w != 1 || wb != 5 || rb != 4 {
		t.Errorf("dialed side counted writes=%d/%dB read %dB, want 1/5B and 4B", w, wb, rb)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON holds the code's catalogue and the
// contract file together: same workloads, same metrics, same units and
// directions, in both directions.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, e := range bf.EndToEnd {
		d := endToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better() {
			t.Errorf("end_to_end[%d] is %+v, the code has %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > contractCap || e.Bound < initialBound[e.Name] {
			t.Errorf("%s: bound %v outside [%v, %v]", e.Name, e.Bound, initialBound[e.Name], contractCap)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("setup_s [s, lower] is missing from end_to_end")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, e := range bf.PerLayer {
		d := perLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better() {
			t.Errorf("per_layer[%d] is %+v, the code has %+v", i, e, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
}

// miniRun runs every workload for one short round (two when traced, so one
// window is traced) and returns what was printed.
func miniRun(t *testing.T, trace int) (string, map[string]result) {
	t.Helper()
	var out bytes.Buffer
	o := options{out: &out, workload: "all", seed: 7, trace: trace, root: t.TempDir()}
	pl := plan{rounds: 1 + trace, window: 300 * time.Millisecond, setups: 1, warmup: 300 * time.Millisecond}
	if err := run(o, pl); err != nil {
		t.Fatalf("mini-run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var results map[string]result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return out.String(), results
}

// checkPrinted asserts that every metric of defs is printed exactly once per
// workload with its unit, that nothing outside the catalogue is printed, and
// that every workload's accounting closed with no failed op.
func checkPrinted(t *testing.T, printed string, results map[string]result, defs []metricDef) {
	t.Helper()
	count := make(map[string]int)
	for _, line := range strings.Split(printed, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "metric" {
			if strings.HasPrefix(line, "FAILED CHECK") {
				t.Error(line)
			}
			continue
		}
		if len(f) != 5 {
			t.Errorf("malformed metric line %q", line)
			continue
		}
		workload, name, unit := f[1], f[2], f[4]
		if _, err := findWorkload(workload); err != nil {
			t.Errorf("metric printed for %v", err)
		}
		want := unitOf(name)
		if name == "ops_attempted" || name == "ops_failed" {
			want = "count"
		}
		if want == "" || want != unit {
			t.Errorf("%s %s printed with unit %q, the catalogue says %q", workload, name, unit, want)
		}
		count[workload+" "+name]++
	}
	for _, w := range workloadNames() {
		for _, d := range defs {
			if n := count[w+" "+d.name]; n != 1 {
				t.Errorf("%s %s printed %d times, want once", w, d.name, n)
			}
		}
		res, ok := results[w]
		if !ok {
			t.Errorf("no result for workload %s", w)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: result line has %d metrics, want %d", w, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: result line lacks %s [%s]", w, d.name, d.unit)
			}
		}
	}
	for key, n := range count {
		if n != 1 {
			t.Errorf("%s printed %d times", key, n)
		}
	}
}

func TestMiniRunEndToEnd(t *testing.T) {
	printed, results := miniRun(t, 0)
	checkPrinted(t, printed, results, endToEnd)
	for w, res := range results {
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s %s = %v: end-to-end metrics are never 0", w, name, m.Value)
			}
		}
	}
}

func TestMiniRunTraced(t *testing.T) {
	printed, results := miniRun(t, 1)
	checkPrinted(t, printed, results, perLayer)
	// Pair conservation, as the layers' own counters report it: every
	// generated interaction ended as one correlated pair, none pending.
	for _, w := range []string{"pipe-saturate", "pipe-paced"} {
		m := results[w].Metrics
		if got, want := m["gpa.correlated"].Value, m["core.interactions"].Value/2; got != want || m["gpa.pending"].Value != 0 {
			t.Errorf("%s: gpa.correlated %v, want %v (half the LPA records); pending %v", w, got, want, m["gpa.pending"].Value)
		}
		if m["pubsub.read_syscalls_per_record"].Value <= 0 || m["pubsub.recv_us_per_batch"].Value <= 0 {
			t.Errorf("%s: the subscriber side reported no reads or no receive time", w)
		}
	}
	if !strings.Contains(printed, "reconcile pipe-saturate:") {
		t.Error("the traced run did not print pipe-saturate's reconciliation")
	}
}
