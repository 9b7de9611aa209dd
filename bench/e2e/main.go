// Command e2e is SysProf's wall-clock pipeline benchmark. One process
// drives up to four workloads through the public functions of every layer
// (kprof, core, ecode, dissem, pbio, pubsub, gpa), prints every metric by
// name with its unit, checks the program's outputs, and exits non-zero on
// any failed check. README.md is the catalogue; BENCHMARK.json at the
// repository root is the contract the driver holds it to.
//
//	bash bench/run.sh --workload pipe-saturate --seed 1 --seconds 22 --trace 0
//	bash bench/run.sh --workload all                 # interleaved rounds
//	bash bench/run.sh --workload query-mix --trace 1 # per-layer table
//	bash bench/run.sh --calibrate 10                 # measure the noise, set the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
)

type options struct {
	out        io.Writer // where metrics and the result line go
	workload   string
	seed       int64
	seconds    int
	trace      int
	root       string
	calibrate  int
	cpuProfile bool
	memProfile bool
}

func (o options) outDir() string { return filepath.Join(o.root, "bench", "e2e", "out") }

func main() {
	o := options{out: os.Stdout}
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all for interleaved rounds of every workload")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated events, records and queries")
	flag.IntVar(&o.seconds, "seconds", 22, "seconds of open measurement window per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.root, "root", ".", "repository root (BENCHMARK.json and bench/e2e/ live under it)")
	flag.IntVar(&o.calibrate, "calibrate", 0, "run every workload this many times, report the spreads and set the bounds in BENCHMARK.json")
	flag.BoolVar(&o.cpuProfile, "cpuprofile", false, "write bench/e2e/out/cpu-<workload>.pprof (one workload only)")
	flag.BoolVar(&o.memProfile, "memprofile", false, "write bench/e2e/out/mem-<workload>.pprof (one workload only)")
	flag.Parse()

	var err error
	switch {
	case o.calibrate > 0:
		err = calibrate(o)
	case o.seconds < 1 || (o.trace != 0 && o.trace != 1):
		err = fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	default:
		err = run(o, defaultPlan(o.seconds, o.trace == 1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// result is the last line of a one-workload run, as the driver reads it.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run builds the chosen workloads, measures them in interleaved rounds,
// closes their accounting and reports.
func run(o options, pl plan) error {
	names := workloadNames()
	if o.workload != "all" {
		names = []string{o.workload}
	}
	if (o.cpuProfile || o.memProfile) && len(names) != 1 {
		return fmt.Errorf("-cpuprofile and -memprofile profile one workload: pass -workload")
	}

	var insts []*instance
	defer func() {
		for _, inst := range insts {
			inst.w.close()
		}
	}()
	for _, name := range names {
		inst, err := setup(name, o.seed, pl)
		if err != nil {
			return err
		}
		if o.trace == 1 {
			inst.tr = newTracer()
			inst.w.setTracer(inst.tr)
		}
		insts = append(insts, inst)
	}

	if o.cpuProfile {
		stop, err := startCPUProfile(o, names[0])
		if err != nil {
			return err
		}
		defer stop()
	}

	// Every workload gets one window per round, so each samples the whole
	// run. A traced run alternates untraced and traced rounds: its overhead
	// figure compares neighbours.
	for r := 0; r < pl.rounds; r++ {
		for _, inst := range insts {
			if err := inst.measure(pl, o.trace == 1 && r%2 == 1); err != nil {
				return err
			}
		}
	}

	results := make(map[string]result)
	allCorrect := true
	for _, inst := range insts {
		var err error
		if inst.final, err = inst.w.finish(); err != nil {
			return fmt.Errorf("%s: finish: %w", inst.name, err)
		}
		var m metricSet
		defs := endToEnd
		if o.trace == 1 {
			defs = perLayer
			if m, err = inst.layerMetrics(o.out, o.seed, pl); err != nil {
				return err
			}
			path, err := inst.tr.write(o.outDir(), inst.name)
			if err != nil {
				return err
			}
			fmt.Fprintf(o.out, "trace %s: %d spans in %s\n", inst.name, len(inst.tr.spans), path)
		} else if m, err = inst.endToEndMetrics(pl.minBeyond); err != nil {
			return err
		}
		res := report(o.out, inst, m, defs)
		results[inst.name] = res
		allCorrect = allCorrect && res.Correct
	}
	if o.memProfile {
		if err := writeHeapProfile(o, names[0]); err != nil {
			return err
		}
	}

	var last any = results
	if len(names) == 1 {
		last = results[names[0]]
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, string(line))
	if !allCorrect {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// report prints one workload's metrics by name with their units, names
// every failed check, and returns the driver's view of the run.
func report(out io.Writer, inst *instance, m metricSet, defs []metricDef) result {
	res := result{
		Correct:   len(inst.final.checks) == 0 && inst.final.failed == 0,
		Attempted: inst.final.attempted,
		Failed:    inst.final.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: m[d.name], Unit: d.unit}
	}
	// Everything computed is printed, the diagnostics of an untraced run
	// included; only the contract's set goes into the result line.
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "metric %s %s %.6g %s\n", inst.name, name, m[name], unitOf(name))
	}
	fmt.Fprintf(out, "metric %s ops_attempted %d count\n", inst.name, inst.final.attempted)
	fmt.Fprintf(out, "metric %s ops_failed %d count\n", inst.name, inst.final.failed)
	if inst.reruns > 0 {
		fmt.Fprintf(out, "note %s: %d window(s) discarded and run again (generator lateness p99 > %.0f ms, or too few samples)\n", inst.name, inst.reruns, maxLateMs)
	}
	for _, c := range inst.final.checks {
		fmt.Fprintf(out, "FAILED CHECK %s: %s\n", inst.name, c)
	}
	return res
}

func startCPUProfile(o options, workload string) (func(), error) {
	if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(o.outDir(), "cpu-"+workload+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "e2e: cpu profile:", err)
		}
	}, nil
}

func writeHeapProfile(o options, workload string) error {
	if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.outDir(), "mem-"+workload+".pprof"))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
