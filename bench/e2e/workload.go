package main

import (
	"fmt"
	"sync"
	"time"
)

// drainTimeout bounds how long a window waits for the pipeline to empty.
const drainTimeout = 10 * time.Second

// mark is one point on a window's progress curve, taken by the workload
// whenever a natural unit of work completes (a batch ingested, a run of
// chunks emitted, a rotation answered). The runner cuts the curve into
// slices and reduces each slice on its own.
type mark struct {
	t   int64  // monotonic ns
	ops uint64 // ops completed since the window opened
	cpu int64  // process CPU ns
	lat int    // latency samples recorded since the window opened
}

// recorder collects a window's marks and latency samples. One lock per
// completed unit of work; several consumer goroutines may share it.
type recorder struct {
	mu    sync.Mutex
	ops   uint64
	marks []mark
	lat   []float64 // ms, in completion order
}

// begin empties the recorder and places the window's first mark.
func (r *recorder) begin() {
	r.mu.Lock()
	r.ops, r.marks, r.lat = 0, r.marks[:0], r.lat[:0]
	r.marks = append(r.marks, mark{t: mono(), cpu: cpuClock()})
	r.mu.Unlock()
}

// done marks n more ops complete. The caller has appended their latencies
// to r.lat, and holds r.mu if goroutines share the recorder.
func (r *recorder) done(n uint64) {
	r.ops += n
	r.marks = append(r.marks, mark{t: mono(), ops: r.ops, cpu: cpuClock(), lat: len(r.lat)})
}

// end places the window's last mark, so that the time after the last
// completed op is counted too.
func (r *recorder) end() {
	r.mu.Lock()
	r.done(0)
	r.mu.Unlock()
}

// winStats is what one measurement window did. marks and lat are the
// workload's own buffers and are overwritten by its next window.
type winStats struct {
	marks []mark
	lat   []float64
	open  time.Duration // how long the workload's clock was open

	genLateP99 float64       // ms; open-loop generator lateness
	creditWait time.Duration // closed-loop generator time spent out of credit
}

func (w *winStats) ops() uint64 {
	if len(w.marks) == 0 {
		return 0
	}
	return w.marks[len(w.marks)-1].ops
}

// finalStats closes a workload's accounting after its last window.
type finalStats struct {
	attempted uint64
	failed    uint64
	// checks names every output check that did not hold. Empty on a
	// correct run.
	checks []string
}

func (f *finalStats) check(ok bool, format string, args ...any) {
	if !ok {
		f.checks = append(f.checks, fmt.Sprintf(format, args...))
	}
}

// workload is one set of inputs driven through the public functions of the
// layers it covers. The runner opens one window at a time; between windows
// the workload's generators do not run, its pipeline is empty, and its
// clock stands still.
type workload interface {
	// window opens the clock, generates for d, waits until everything the
	// generators caused is complete, and freezes the clock again.
	window(d time.Duration) (winStats, error)
	// finish flushes what the program still holds, closes the accounting
	// and checks the outputs. No window follows it.
	finish() (finalStats, error)
	// layers reports the per-layer metrics this workload can see. Called
	// after finish.
	layers(m metricSet)
	// setTracer attaches the tracer traced windows record into.
	setTracer(t *tracer)
	close()
}

// workloadDef is one row of the workload table: the name BENCHMARK.json
// knows it by, its constructor, and what the estimator needs to know about
// its ops. A constructor returns a workload that has run for the warm-up
// time: everything set-up time pays for.
type workloadDef struct {
	name  string
	build func(seed int64, warmup time.Duration) (workload, error)
	// sliceLen is the length of time each window is cut into: a handful of the
	// workload's units of work. Shorter is steadier: the machine's slow
	// spells last tens of milliseconds, and a long slice always holds one.
	sliceLen time.Duration
	// hi is the high latency percentile the quiet slices' pooled sample
	// supports: p99 where ops are records or chunks, p90 for rotations.
	hi float64
	// openLoop marks the workload whose time per op is pinned by its
	// schedule: its throughput is taken over all slices.
	openLoop bool
}

// workloads is the table, in the order of a round.
var workloads = []workloadDef{
	{name: "pipe-saturate", sliceLen: 50 * time.Millisecond, hi: 0.99, // ~5 batches of 512 records
		build: func(seed int64, warmup time.Duration) (workload, error) { return newPipe(saturateCfg, seed, warmup) }},
	{name: "pipe-paced", sliceLen: 200 * time.Millisecond, hi: 0.99, openLoop: true, // ~16 shard batches of ~256
		build: func(seed int64, warmup time.Duration) (workload, error) { return newPipe(pacedCfg, seed, warmup) }},
	{name: "capture-cpa", sliceLen: 10 * time.Millisecond, hi: 0.99, build: newCapture}, // ~400 chunks of 120 events
	{name: "query-mix", sliceLen: 100 * time.Millisecond, hi: 0.90, build: newQueryMix}, // ~5 rotations
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}
