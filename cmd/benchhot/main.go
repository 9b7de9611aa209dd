// Command benchhot runs the hot-path benchmarks with -benchmem and
// writes a machine-readable snapshot to BENCH_hotpath.json at the repo
// root, so the perf trajectory is versioned alongside the code instead
// of being rediscovered whenever a regression is suspected.
//
// Usage:
//
//	go run ./cmd/benchhot [-benchtime 1s] [-count 1] [-out BENCH_hotpath.json]
//
// The benchmark set is the same one the CI benchmark-smoke step compiles:
// GPA columnar ingest and the federated correlated-page round trip,
// remote publish (one-record and 64-record batch frames), the
// dissemination encoders (row batch, plain and compressed columnar), and
// the CPA per-event engines (interpreter vs compiled closures).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// hotPathBenchmarks maps each package to the benchmark pattern that
// covers its hot path.
var hotPathBenchmarks = []struct {
	pkg     string
	pattern string
}{
	{"./internal/gpa/", "BenchmarkIngestColumns|BenchmarkCorrelatedPage"},
	{"./internal/pubsub/", "BenchmarkPublishRemote|BenchmarkPublishBatchRemote"},
	{"./internal/dissem/", "BenchmarkFlushEncode|BenchmarkColumnsEncode"},
	{"./internal/pbio/", "BenchmarkPBIOEncodeReuse"},
	{"./internal/ecode/", "BenchmarkCPAPerEvent"},
}

// guardCPACompiled fails the run when the compiled-closure CPA engine
// measures slower than the tree-walking interpreter it replaced — the
// whole point of compiling verified analyzers is the per-event hot
// path, so "compiled but slower" is a regression, not a wash.
func guardCPACompiled(all []result) error {
	var interp, compiled *result
	for i := range all {
		switch all[i].Name {
		case "BenchmarkCPAPerEvent/interp":
			interp = &all[i]
		case "BenchmarkCPAPerEvent/compiled":
			compiled = &all[i]
		}
	}
	if interp == nil || compiled == nil {
		return fmt.Errorf("cpa guard: interp/compiled measurements missing from BenchmarkCPAPerEvent")
	}
	if compiled.NsPerOp > interp.NsPerOp {
		return fmt.Errorf("compiled CPA regressed: compiled %.0f ns/op > interp %.0f ns/op",
			compiled.NsPerOp, interp.NsPerOp)
	}
	return nil
}

// result is one benchmark measurement in the JSON snapshot.
type result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches `go test -bench -benchmem` output, e.g.
//
//	BenchmarkIngestColumns-8  20793  56758 ns/op  330 B/op  0 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func parseBench(pkg, out string) []result {
	var results []result
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var bPerOp, allocs int64
		if m[4] != "" {
			bPerOp, _ = strconv.ParseInt(m[4], 10, 64)
			allocs, _ = strconv.ParseInt(m[5], 10, 64)
		}
		// Strip the trailing -GOMAXPROCS suffix so snapshots diff cleanly
		// across machines.
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		results = append(results, result{
			Name: name, Package: strings.Trim(pkg, "./"),
			Iterations: iters, NsPerOp: ns, BPerOp: bPerOp, AllocsPerOp: allocs,
		})
	}
	return results
}

func main() {
	benchtime := flag.String("benchtime", "1s", "per-benchmark measurement time (or Nx iteration count)")
	count := flag.Int("count", 1, "runs per benchmark (last run wins)")
	out := flag.String("out", "BENCH_hotpath.json", "output path for the JSON snapshot")
	flag.Parse()

	var all []result
	for _, hb := range hotPathBenchmarks {
		args := []string{"test", "-run", "^$",
			"-bench", hb.pattern, "-benchmem",
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count), hb.pkg}
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchhot: go %s: %v\n%s", strings.Join(args, " "), err, outBytes)
			os.Exit(1)
		}
		// With -count > 1 the same benchmark repeats; keep the last
		// measurement of each name (the warmest).
		byName := make(map[string]int)
		for _, r := range parseBench(hb.pkg, string(outBytes)) {
			if i, ok := byName[r.Name]; ok {
				all[i] = r
				continue
			}
			byName[r.Name] = len(all)
			all = append(all, r)
		}
	}
	if len(all) == 0 {
		fmt.Fprintln(os.Stderr, "benchhot: no benchmark results parsed")
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchhot:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchhot:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(all))
	if err := guardCPACompiled(all); err != nil {
		fmt.Fprintln(os.Stderr, "benchhot:", err)
		os.Exit(1)
	}
}
