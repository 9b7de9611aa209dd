package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// plan is the shape of a run.
type plan struct {
	// rounds is how many windows each workload gets, window how long each
	// is open. A traced run alternates untraced and traced windows.
	rounds int
	window time.Duration
	// setups is how many times a workload is built, warm-up included, so
	// that setup_s is a median and not one sample.
	setups int
	// warmup is the fixed time a workload runs before anything is measured.
	// It covers every horizon that changes the cost of an op: LPA windows
	// and buffers full, the GPA's correlated history at its cap, its load
	// window full. Fixed, not "until warm", so that setup_s repeats.
	warmup time.Duration
	// minBeyond is how many samples must lie beyond a reported percentile.
	minBeyond int
}

// defaultPlan splits a run's seconds into six windows; a traced run opens
// four of them and keeps the rest of its time for the offline replays.
func defaultPlan(seconds int, traced bool) plan {
	p := plan{rounds: 6, setups: 3, warmup: 2 * time.Second, minBeyond: 10}
	p.window = time.Duration(seconds) * time.Second / time.Duration(p.rounds)
	if traced {
		p.rounds = 4
	}
	return p
}

const (
	// maxLateMs is the generator lateness (p99) beyond which an open-loop
	// window measured the machine, not the program, and is run again. On a
	// quiet machine p99 is 3.5 to 6 ms (0.6 ms of timer slack, three
	// threads time-sliced on two CPUs); 10 ms is the scheduler quantum, and
	// a tick later than that was kept off the CPU by something else.
	// maxReruns bounds the repeats of a run, after which a late window
	// stands: its latency is timed from due times and carries the stall.
	maxLateMs = 10.0
	maxReruns = 3
)

// slice is one stretch of a window between two marks.
type slice struct {
	traced bool
	dt     int64 // ns
	ops    uint64
	cpu    int64     // ns
	lat    []float64 // the latency samples completed in it, ms, ascending
	// The slice's own value of each time-based metric: what it is ranked by.
	thr, cpuUs, p50, hi float64
}

// cut splits one window's progress curve into slices at least d long. A
// tail shorter than half of d, or one in which no op completed (the wait
// for the pipeline to drain), joins the slice before it.
func cut(ws *winStats, d time.Duration, hiQ float64, traced bool) []slice {
	var out []slice
	marks := ws.marks
	from := 0
	for i := 1; i < len(marks); i++ {
		last := i == len(marks)-1
		if marks[i].t-marks[from].t < int64(d) && !last {
			continue
		}
		a, b := marks[from], marks[i]
		if last && (b.t-a.t < int64(d)/2 || b.ops == a.ops) && len(out) > 0 {
			prev := &out[len(out)-1]
			prev.dt += b.t - a.t
			prev.ops += b.ops - a.ops
			prev.cpu += b.cpu - a.cpu
			prev.lat = append(prev.lat, ws.lat[a.lat:b.lat]...)
			break
		}
		if b.ops == a.ops {
			continue
		}
		out = append(out, slice{
			traced: traced, dt: b.t - a.t, ops: b.ops - a.ops, cpu: b.cpu - a.cpu,
			lat: append([]float64(nil), ws.lat[a.lat:b.lat]...),
		})
		from = i
	}
	for i := range out {
		s := &out[i]
		s.thr = float64(s.ops) / (float64(s.dt) / 1e9)
		s.cpuUs = float64(s.cpu) / 1e3 / float64(s.ops)
		sort.Float64s(s.lat)
		// Ranking values only: a slice's few samples support no percentile
		// worth reporting, and one without samples ranks last.
		s.p50, s.hi = math.Inf(1), math.Inf(1)
		if len(s.lat) > 0 {
			s.p50, _ = percentile(s.lat, 0.50, 0)
			s.hi, _ = percentile(s.lat, hiQ, 0)
		}
	}
	return out
}

// instance is one workload of a run, built and warmed up.
type instance struct {
	workloadDef
	w      workload
	setupS float64
	heapMB float64
	tr     *tracer
	io0    procIO
	final  finalStats

	slices      []slice
	ops         [2]uint64 // untraced, traced
	mallocs     [2]uint64
	open        [2]time.Duration
	windows     int
	reruns      int
	genLate     float64
	creditShare float64
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup builds the workload pl.setups times and keeps the last: setup_s is
// the median build, heap_retained_mb what the kept one holds after warm-up.
func setup(name string, seed int64, pl plan) (*instance, error) {
	def, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	inst := &instance{workloadDef: def}
	var times []float64
	for i := 0; i < pl.setups; i++ {
		before := heapAlloc()
		if inst.io0, err = readProcIO(); err != nil {
			return nil, err
		}
		start := mono()
		w, err := def.build(seed, pl.warmup)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		times = append(times, float64(mono()-start)/1e9)
		if i < pl.setups-1 {
			w.close()
			continue
		}
		inst.w = w
		inst.heapMB = (float64(heapAlloc()) - float64(before)) / (1 << 20)
	}
	inst.setupS = median(times)
	return inst, nil
}

// measure opens one window of the workload and files its slices. The forced
// GC and the allocation readings fall outside the open window.
func (inst *instance) measure(pl plan, traced bool) error {
	if inst.tr != nil {
		inst.tr.enabled.Store(traced)
	}
	for {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		ws, err := inst.w.window(pl.window)
		if err != nil {
			return fmt.Errorf("%s: window: %w", inst.name, err)
		}
		runtime.ReadMemStats(&ms)
		if ws.genLateP99 > maxLateMs && inst.reruns < maxReruns {
			inst.reruns++
			continue
		}
		if ws.ops() == 0 {
			return fmt.Errorf("%s: window completed no op", inst.name)
		}
		k := 0
		if traced {
			k = 1
		}
		inst.slices = append(inst.slices, cut(&ws, inst.sliceLen, inst.hi, traced)...)
		inst.ops[k] += ws.ops()
		inst.mallocs[k] += ms.Mallocs - mallocs0
		inst.open[k] += ws.open
		inst.windows++
		inst.genLate = max(inst.genLate, ws.genLateP99)
		inst.creditShare += float64(ws.creditWait) / float64(ws.open)
		return nil
	}
}

// value is a slice's own reading of a time-based metric, turned so that
// lower is better.
func (s *slice) value(name string) float64 {
	switch name {
	case "throughput_per_s":
		return -s.thr
	case "cpu_us_per_op":
		return s.cpuUs
	case "latency_p50_ms":
		return s.p50
	}
	return s.hi
}

// reduce takes one time-based metric over a set of slices: ops over time,
// CPU over ops, or a percentile of the pooled latency samples.
func reduce(name string, slices []slice, hiQ float64, minBeyond int) (float64, error) {
	var dt, cpu int64
	var ops uint64
	var lat []float64
	for i := range slices {
		dt += slices[i].dt
		cpu += slices[i].cpu
		ops += slices[i].ops
		if name == "latency_p50_ms" || name == "latency_hi_ms" {
			lat = append(lat, slices[i].lat...)
		}
	}
	switch name {
	case "throughput_per_s":
		return float64(ops) / (float64(dt) / 1e9), nil
	case "cpu_us_per_op":
		return float64(cpu) / 1e3 / float64(ops), nil
	case "latency_p50_ms":
		hiQ = 0.50
	}
	sort.Float64s(lat)
	return percentile(lat, hiQ, minBeyond)
}

// quiet is the best-quartile estimator: the quarter of the slices in which
// the named metric read best. A neighbour on the machine only ever makes an
// op dearer, in spells of tens of milliseconds that fill anything from a
// fifth to two thirds of a run; the best quarter of short slices is what
// the code does when the machine is its own, and repeats within a few per
// cent where whole-run means and medians swing by a quarter.
func quiet(name string, slices []slice) []slice {
	s := append([]slice(nil), slices...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].value(name) < s[j].value(name) })
	return s[:(len(s)+3)/4]
}

func (inst *instance) pick(traced bool) []slice {
	var out []slice
	for _, s := range inst.slices {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

// estimate is one time-based metric of the run: over the quarter of the
// slices where it read best, except the open loop's throughput, which its
// schedule pins and which is taken over all of them.
func (inst *instance) estimate(name string, slices []slice, minBeyond int) (float64, error) {
	if !(inst.openLoop && name == "throughput_per_s") {
		slices = quiet(name, slices)
	}
	v, err := reduce(name, slices, inst.hi, minBeyond)
	if err != nil {
		return 0, fmt.Errorf("%s: %s over %d quiet slices: %w", inst.name, name, len(slices), err)
	}
	return v, nil
}

// endToEndMetrics reduces the untraced windows to the run's end-to-end
// metrics: time-based ones by the best-quartile estimator, counts as exact
// totals. The same metrics over all slices go out as bench.median.*, and
// how far those lie from the reported values as bench.spread_pct.*.
func (inst *instance) endToEndMetrics(minBeyond int) (metricSet, error) {
	all := inst.pick(false)
	m := metricSet{
		"setup_s":          inst.setupS,
		"heap_retained_mb": inst.heapMB,
		"allocs_per_op":    float64(inst.mallocs[0]) / float64(inst.ops[0]),
	}
	for _, name := range windowed {
		best, err := inst.estimate(name, all, minBeyond)
		if err != nil {
			return nil, err
		}
		plain, err := reduce(name, all, inst.hi, minBeyond)
		if err != nil {
			return nil, err
		}
		m[name] = best
		m["bench.median."+name] = plain
		m["bench.spread_pct."+name] = math.Abs(plain-best) / best * 100
	}
	m["bench.gen_late_ms_p99"] = inst.genLate
	m["bench.credit_wait_share"] = inst.creditShare / float64(inst.windows)
	return m, nil
}

// layerMetrics assembles the traced run's per-layer table: counts from the
// layers' own Stats getters, times from the spans of the traced windows,
// the offline replays, and the reconciliation against throughput.
func (inst *instance) layerMetrics(out io.Writer, seed int64, pl plan) (metricSet, error) {
	// A traced run has a third of the untraced slices an untraced run has;
	// its end-to-end figures are context for the table, not results, and
	// take whatever percentile support there is.
	m, err := inst.endToEndMetrics(0)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // a layer this workload does not exercise
		}
	}
	inst.w.layers(m)
	if inst.ops[1] == 0 {
		return m, nil
	}
	if inst.openLoop {
		// The schedule pins the throughput; tracing shows as CPU per op.
		cpu, err := inst.estimate("cpu_us_per_op", inst.pick(true), 0)
		if err != nil {
			return nil, err
		}
		m["bench.trace_overhead_pct"] = (cpu/m["cpu_us_per_op"] - 1) * 100
	} else {
		thr, err := inst.estimate("throughput_per_s", inst.pick(true), 0)
		if err != nil {
			return nil, err
		}
		m["bench.trace_overhead_pct"] = (1 - thr/m["throughput_per_s"]) * 100
	}

	micro := pl.window / 2
	tot := inst.tr.totals()
	emit, onfull, recv, ingest := tot["kprof.emit"], tot["dissem.onfull"], tot["pubsub.recv"], tot["gpa.ingest"]
	if inst.name != "query-mix" {
		m["kprof.dispatch_ns_per_event"] = dispatchCost(seed, micro)
	}
	if emit.count > 0 {
		m["core.lpa_ns_per_event"] = float64(emit.self)/float64(emit.count) - m["kprof.dispatch_ns_per_event"]
	}
	if onfull.count > 0 {
		m["dissem.onfull_us_per_batch"] = float64(onfull.total) / 1e3 / float64(onfull.count)
	}
	if recv.count > 0 {
		m["pubsub.recv_us_per_batch"] = float64(recv.total) / 1e3 / float64(recv.count)
	}
	inst.tr.mu.Lock()
	recvRecs := inst.tr.recvRecs
	residency, transit := sortedCopy(inst.tr.residency), sortedCopy(inst.tr.transit)
	inst.tr.mu.Unlock()
	if recvRecs > 0 {
		m["gpa.ingest_ns_per_record"] = float64(ingest.total) / float64(recvRecs)
	}
	if len(residency) > 0 {
		m["core.residency_ms_p50"] = residency[len(residency)/2]
	}
	if len(transit) > 0 {
		m["pubsub.transit_ms_p50"] = transit[len(transit)/2]
	}
	if inst.name == "capture-cpa" {
		if m["ecode.cpa_ns_per_event"], err = cpaCost(seed, micro); err != nil {
			return nil, err
		}
	}

	io1, err := readProcIO()
	if err != nil {
		return nil, err
	}
	if recs := m["gpa.ingested"]; recv.count > 0 && recs > 0 {
		// Every read(2) of the process since this instance was built belongs
		// to its subscriber side: nothing else in a pipe workload reads.
		m["pubsub.read_syscalls_per_record"] = float64(io1.syscr-inst.io0.syscr) / recs
	}

	if inst.name == "pipe-saturate" && recv.count > 0 && emit.count > 0 && recvRecs > 0 {
		// Producer thread: every event's emit plus the flush it sometimes
		// triggers. Consumer thread: receive plus ingest. The pipeline moves
		// at the pace of the busier one. Spans cover the traced windows
		// whole, so the throughput they must add up to is the plain one.
		eventsPerRecord := m["kprof.events_emitted"] / m["gpa.ingested"]
		recsPerBatch := float64(recvRecs) / float64(recv.count)
		producer := eventsPerRecord*float64(emit.self)/float64(emit.count) + float64(onfull.total)/float64(onfull.count)/recsPerBatch
		consumer := float64(recv.total+ingest.total) / float64(recvRecs)
		perRecord := float64(inst.open[1]) / float64(inst.ops[1])
		m["bench.reconcile_pct"] = math.Abs(max(producer, consumer)-perRecord) / perRecord * 100
		fmt.Fprintf(out, "reconcile %s: producer %.0f ns/record, consumer %.0f ns/record (recv %.0f + ingest %.0f), 1/throughput %.0f ns: bottleneck is the %s thread\n",
			inst.name, producer, consumer, float64(recv.total)/float64(recvRecs), float64(ingest.total)/float64(recvRecs), perRecord,
			map[bool]string{true: "consumer", false: "producer"}[consumer >= producer])
	}
	return m, nil
}
