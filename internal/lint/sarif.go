package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
)

// SARIF output: the standard interchange format CI systems ingest
// (artifact upload, code-scanning annotations). Only the stdlib JSON
// encoder is used; the schema subset below is the minimal valid SARIF
// 2.1.0 document — one run, one rule per analyzer, one result per
// diagnostic with the evidence chain as relatedLocations.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID        string       `json:"id"`
	ShortDesc sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID           string          `json:"ruleId"`
	Level            string          `json:"level"`
	Message          sarifMessage    `json:"message"`
	Locations        []sarifLocation `json:"locations"`
	RelatedLocations []sarifLocation `json:"relatedLocations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
	Message          *sarifMessage `json:"message,omitempty"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// relURI renders a diagnostic position as a module-root-relative,
// forward-slash URI (falling back to the raw path when the position is
// outside the root).
func relURI(root, filename string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, filename); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasParentPrefix(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}

func hasParentPrefix(rel string) bool {
	return rel == ".." || len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator)
}

// WriteSARIF writes the diagnostics as a SARIF 2.1.0 document. Paths are
// made relative to root so the artifact is stable across checkouts; the
// rule table lists every analyzer that ran, findings or not, so a clean
// run still documents what was checked.
func WriteSARIF(w io.Writer, root string, diags []Diagnostic, analyzers []*Analyzer) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDesc: sarifMessage{Text: a.Doc}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		res := sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relURI(root, d.Pos.Filename)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		}
		for _, f := range d.Chain {
			msg := f.Msg
			res.RelatedLocations = append(res.RelatedLocations, sarifLocation{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relURI(root, f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
				Message: &sarifMessage{Text: msg},
			})
		}
		results = append(results, res)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "sysproflint", Rules: rules}},
			Results: results,
		}},
	})
}
