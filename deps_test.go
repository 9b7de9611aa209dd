package sysprof

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDaemonsDoNotLinkTheAnalyzers walks the import graph of the
// binaries that run on, or talk to, a monitored node. They carry the
// E-Code verifier, whose diagnostics share a shape with sysproflint's;
// that shape lives in internal/diag so that none of them links
// internal/lint and, through it, the Go type checker (go/types,
// go/parser, go/importer, go/build, go/doc — some 0.8 MB per binary).
// go/token, which diag's positions use, is the one go/ package allowed.
// The node's own binaries do not link the GPA either: sysprofd sends its
// clock-error bounds to the shards over the line protocol, and the
// federation is administered through gpad -frontend's port.
func TestDaemonsDoNotLinkTheAnalyzers(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/sysprofd", "./cmd/gpad", "./cmd/sysprofctl").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if len(deps) == 0 {
		t.Fatal("go list -deps printed nothing")
	}
	for _, pkg := range deps {
		if pkg == "sysprof/internal/lint" || strings.HasPrefix(pkg, "go/") && pkg != "go/token" {
			t.Errorf("a daemon imports %s", pkg)
		}
	}
	out, err = exec.Command("go", "list", "-deps", "./cmd/sysprofd", "./cmd/sysprofctl").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "sysprof/internal/gpa" {
			t.Errorf("sysprofd or sysprofctl imports %s", pkg)
		}
	}
}

// TestPubsubDoesNotImportTheHarness keeps the send-queue machine free of
// the code that drives it in virtual time: the scenario harness imports
// pubsub.Queue and hands it durations and timestamps as values, so
// internal/pubsub itself imports neither the sim engine nor the harness
// and must not grow a clock interface to reach them. (Direct imports
// only: internal/core reaches internal/sim through kprof and simnet, so
// the engine sits under every package that handles a core.Record.)
func TestPubsubDoesNotImportTheHarness(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, "./internal/pubsub").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports := strings.Fields(string(out))
	if len(imports) == 0 {
		t.Fatal("go list printed no imports")
	}
	for _, pkg := range imports {
		if pkg == "sysprof/internal/sim" || pkg == "sysprof/internal/scenario" {
			t.Errorf("internal/pubsub imports %s", pkg)
		}
	}
}
