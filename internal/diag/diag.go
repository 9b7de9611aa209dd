// Package diag is the finding shape sysproflint and the E-Code verifier
// share, so CLI and CI output stays uniform: a position, the check that
// produced it, a message, and the evidence chain that justifies it. It
// imports nothing beyond go/token, so the daemons that link the
// verifier do not link the analyzer suite with it.
package diag

import (
	"fmt"
	"go/token"
	"strings"
)

// ChainFrame is one hop of a diagnostic's supporting path — a call site
// or lock acquisition on the way from the reported position to the root
// cause.
type ChainFrame struct {
	Pos token.Position
	Msg string
}

// Diagnostic is one finding: a position, the analyzer that produced it,
// a message, and (for cross-function findings) the call chain that
// justifies it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Chain, when non-empty, is the evidence path: each frame is one
	// call or acquisition hop, root cause last.
	Chain []ChainFrame
}

// String renders the diagnostic in the conventional file:line:col form
// (one line, chain omitted — CI greps this shape).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Detail renders the diagnostic with its chain as indented continuation
// lines, the way the CLI prints it.
func (d Diagnostic) Detail() string {
	var sb strings.Builder
	sb.WriteString(d.String())
	for _, f := range d.Chain {
		fmt.Fprintf(&sb, "\n\t%s:%d:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg)
	}
	return sb.String()
}
