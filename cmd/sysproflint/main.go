// Command sysproflint runs the SysProf static-analysis suite
// (internal/lint) over the module: hot-path contracts — non-blocking
// emit and publish paths, atomic access discipline on shared fields —
// enforced before the code runs, the way the eBPF verifier vets tracing
// programs before they load.
//
// Usage:
//
//	go run ./cmd/sysproflint [-analyzers nonblock,atomicmix] [packages...]
//
// Packages default to ./... (the whole module). The exit status is 0 when
// no diagnostics were produced, 1 when there were findings, and 2 on
// driver errors (unreadable module, unknown analyzer).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sysprof/internal/lint"
)

func main() {
	analyzers := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sysproflint [-analyzers a,b] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite, err := lint.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysproflint:", err)
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysproflint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := lint.Run(root, patterns, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysproflint:", err)
		os.Exit(2)
	}

	for _, d := range diags {
		// One grep-able file:line:col line per finding; evidence chains
		// (cross-package call paths) follow as indented continuation
		// lines.
		fmt.Println(d.Detail())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sysproflint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
