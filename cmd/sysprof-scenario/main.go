// Command sysprof-scenario runs a declarative chaos scenario on the
// deterministic simulator and writes its machine-readable report to
// BENCH_scenario_<name>.json. Scenarios come from the builtin registry
// (-name) or a TOML file (-f); all randomness — fleet generation,
// startup jitter, workload arrivals, chaos target selection, packet
// loss — derives from one seed, so the same invocation always produces
// a byte-identical report.
//
// Usage:
//
//	go run ./cmd/sysprof-scenario -list
//	go run ./cmd/sysprof-scenario -name chaos-small
//	go run ./cmd/sysprof-scenario -f examples/chaos-1k/scenario.toml -seed 7
//	go run ./cmd/sysprof-scenario -name happy-small -check
//
// -check is the regression guard: after writing the fresh report it is
// compared byte for byte against the committed snapshot of the same
// name, and any difference fails the run (the file is written first, so
// a failing run leaves the numbers to inspect).
// Intentional behavior changes re-bless the snapshot by committing the
// regenerated file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"sysprof/internal/scenario"
)

func loadSpec(name, file string, seed int64) (scenario.Spec, error) {
	var spec scenario.Spec
	switch {
	case name != "" && file != "":
		return spec, fmt.Errorf("-name and -f are mutually exclusive")
	case name != "":
		builtin, ok := scenario.Builtins()[name]
		if !ok {
			return spec, fmt.Errorf("unknown builtin scenario %q (use -list)", name)
		}
		spec = builtin
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return spec, err
		}
		spec, err = scenario.ParseSpec(string(src))
		if err != nil {
			return spec, fmt.Errorf("%s: %w", file, err)
		}
	default:
		return spec, fmt.Errorf("one of -name or -f is required (use -list for builtins)")
	}
	if seed != 0 {
		spec.Seed = seed
	}
	return spec, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sysprof-scenario:", err)
		os.Exit(1)
	}
}

// run parses args as the command line and runs the scenario it names,
// reporting to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sysprof-scenario", flag.ContinueOnError)
	name := fs.String("name", "", "builtin scenario to run (see -list)")
	file := fs.String("f", "", "TOML scenario file to run")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 = keep the spec's)")
	outDir := fs.String("out", ".", "directory for BENCH_scenario_<name>.json")
	check := fs.Bool("check", false, "fail if the report differs from the committed snapshot")
	list := fs.Bool("list", false, "list builtin scenarios and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		builtins := scenario.Builtins()
		names := make([]string, 0, len(builtins))
		for n := range builtins {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := builtins[n]
			fmt.Fprintf(stdout, "%-12s %4d nodes, %d shards, %d chaos events, seed %d, %v\n",
				n, s.Fleet.Nodes, s.Monitor.Shards, len(s.Chaos), s.Seed, s.Duration)
		}
		return nil
	}

	spec, err := loadSpec(*name, *file, *seed)
	if err != nil {
		return err
	}

	rep, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	buf, err := rep.EncodeJSON()
	if err != nil {
		return err
	}

	outPath := filepath.Join(*outDir, "BENCH_scenario_"+rep.Name+".json")
	// When checking, read the committed snapshot before overwriting it.
	var snapshot []byte
	if *check {
		snapshot, err = os.ReadFile(outPath)
		if err != nil {
			return fmt.Errorf("-check: %w (run once without -check to create the snapshot)", err)
		}
	}
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d/%d requests completed, correlation %.2f%%, %d chaos events, %d unaccounted records\n",
		outPath, rep.Workload.Completed, rep.Workload.Dispatched,
		rep.CorrelationRatePct, len(rep.Chaos), rep.UnaccountedRecords)

	if err := rep.Check(spec.Guard); err != nil {
		return fmt.Errorf("guard: %w", err)
	}
	if *check {
		if err := rep.CompareSnapshot(snapshot); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot check passed: %s\n", outPath)
	}
	return nil
}
