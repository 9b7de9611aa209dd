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
}
