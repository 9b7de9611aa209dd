package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// initialBound is the regression bound each end-to-end metric starts from;
// calibration may only widen it. The time-based ones start at the most the
// driver accepts: on a quiet machine ten runs spread by 3 to 8 %, but the
// machine's floor moves by as much again from one quarter of an hour to the
// next, and a benchmark refused for its noise judges nothing.
var initialBound = map[string]float64{
	"throughput_per_s": contractCap,
	"allocs_per_op":    0.03,
	"latency_p50_ms":   contractCap,
	"latency_hi_ms":    contractCap,
	"heap_retained_mb": 0.05,
	"setup_s":          contractCap, // the contract gives set-up time the largest bound
}

const (
	// issueCap is the bound this benchmark aims for; contractCap is the
	// most the driver accepts, and the spread a metric may never exceed.
	issueCap    = 0.10
	contractCap = 0.25
)

// benchmarkFile mirrors BENCHMARK.json, key for key.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// calStat is one workload x metric cell of a calibration set.
type calStat struct {
	Median         float64   `json:"median"`
	MaxDeviation   float64   `json:"max_deviation"`   // max |v - median| / median
	QuartileSpread float64   `json:"quartile_spread"` // (Q3 - Q1) / median, the driver's measure
	Values         []float64 `json:"values"`
}

// calSet is one -calibrate invocation: N runs of every workload.
type calSet struct {
	Runs       int                           `json:"runs"`
	RunSeconds int                           `json:"run_seconds"`
	CPUs       int                           `json:"cpus"`
	Go         string                        `json:"go"`
	Stats      map[string]map[string]calStat `json:"stats"` // workload -> metric
	Bounds     map[string]float64            `json:"bounds"`
}

type calFile struct {
	Sets []calSet `json:"sets"`
}

// calibrate measures the benchmark's own repeatability the way the driver
// does — separate processes, another seed each — and derives every bound
// from it: the larger of the initial bound, twice the largest deviation
// from the median, and three times the quartile spread, at most
// contractCap. A metric whose quartile spread itself exceeds contractCap
// cannot be bounded and fails the calibration.
func calibrate(o options) error {
	bf, err := readBenchmarkFile(o.root)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64)
	for seed := 1; seed <= o.calibrate; seed++ {
		for _, name := range workloadNames() {
			res, err := runChild(exe, o, name, seed, bf.RunSeconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for metric, v := range res.Metrics {
				values[name][metric] = append(values[name][metric], v.Value)
			}
			fmt.Printf("run %s seed %d: throughput_per_s %.6g\n", name, seed, res.Metrics["throughput_per_s"].Value)
		}
	}

	var problems []string
	set := calSet{
		Runs: o.calibrate, RunSeconds: bf.RunSeconds, CPUs: runtime.NumCPU(), Go: runtime.Version(),
		Stats:  make(map[string]map[string]calStat),
		Bounds: make(map[string]float64),
	}
	fmt.Printf("%-14s %-18s %12s %9s %9s\n", "workload", "metric", "median", "max dev", "IQR/med")
	for _, name := range workloadNames() {
		set.Stats[name] = make(map[string]calStat)
		for _, d := range endToEnd {
			vals := values[name][d.name]
			med := median(vals)
			st := calStat{Median: med, QuartileSpread: quartileSpread(vals), Values: vals}
			for _, v := range vals {
				st.MaxDeviation = max(st.MaxDeviation, math.Abs(v-med)/math.Abs(med))
			}
			set.Stats[name][d.name] = st
			fmt.Printf("%-14s %-18s %12.6g %8.2f%% %8.2f%%\n", name, d.name, med, st.MaxDeviation*100, st.QuartileSpread*100)
			want := max(initialBound[d.name], 2*st.MaxDeviation, 3*st.QuartileSpread)
			set.Bounds[d.name] = max(set.Bounds[d.name], min(math.Ceil(want*1000)/1000, contractCap))
			if d.name != "setup_s" && st.QuartileSpread > contractCap {
				problems = append(problems, fmt.Sprintf("%s %s: quartile spread %.1f%% is beyond any bound the driver accepts: redefine the metric or demote it to per-layer",
					name, d.name, st.QuartileSpread*100))
			}
		}
	}

	calPath := filepath.Join(o.root, "bench", "e2e", "calibration.json")
	var cf calFile
	if data, err := os.ReadFile(calPath); err == nil {
		if err := json.Unmarshal(data, &cf); err != nil {
			return fmt.Errorf("%s: %w", calPath, err)
		}
	}
	if n := len(cf.Sets); n > 0 {
		// The driver's second check: a later set of runs of the same code
		// must not read worse than the earlier one by more than the bound.
		prev := cf.Sets[n-1]
		for _, name := range workloadNames() {
			for _, d := range endToEnd {
				a, b := prev.Stats[name][d.name].Median, set.Stats[name][d.name].Median
				worse := (b - a) / math.Abs(a)
				if d.higher {
					worse = -worse
				}
				fmt.Printf("drift %-14s %-18s %+7.2f%% (bound %.1f%%)\n", name, d.name, worse*100, set.Bounds[d.name]*100)
				if worse > set.Bounds[d.name] {
					problems = append(problems, fmt.Sprintf("%s %s: this set is %.1f%% worse than the previous one", name, d.name, worse*100))
				}
			}
		}
	}
	cf.Sets = append(cf.Sets, set)
	if err := writeJSON(calPath, cf); err != nil {
		return err
	}

	for i := range bf.EndToEnd {
		e := &bf.EndToEnd[i]
		if b := set.Bounds[e.Name]; b > e.Bound {
			e.Bound = b
		}
		if e.Bound > issueCap {
			fmt.Printf("note: %s is bounded at %.3f, above the %.2f this benchmark aims for\n", e.Name, e.Bound, issueCap)
		}
	}
	if err := writeJSON(filepath.Join(o.root, "BENCHMARK.json"), bf); err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("calibration:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

func runChild(exe string, o options, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command(exe, "-root", o.root, "-workload", workload,
		"-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("run was not correct: %d of %d ops failed", res.Failed, res.Attempted)
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
