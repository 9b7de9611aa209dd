package lint

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	d1 := Diagnostic{Analyzer: "nonblock", Message: "Emit is //sysprof:nonblocking but calls net.Write"}
	d1.Pos.Filename = "/mod/internal/kprof/kprof.go"
	d1.Pos.Line = 42
	d1.Pos.Column = 7
	d1.Chain = []ChainFrame{{Msg: "calls net.Write"}}
	d1.Chain[0].Pos.Filename = "/mod/internal/pbio/pbio.go"
	d1.Chain[0].Pos.Line = 9
	d1.Chain[0].Pos.Column = 3

	d2 := Diagnostic{Analyzer: "wiretaint", Message: "wire-tainted value n sizes a make without a bounds check against a constant or named cap"}
	d2.Pos.Filename = "/mod/internal/pbio/columns.go"
	d2.Pos.Line = 458
	d2.Pos.Column = 10
	return []Diagnostic{d1, d2}
}

// TestWriteSARIF pins the SARIF envelope: valid JSON, schema/version,
// module-relative URIs, one rule per analyzer, chains as
// relatedLocations.
func TestWriteSARIF(t *testing.T) {
	var sb strings.Builder
	if err := WriteSARIF(&sb, "/mod", sampleDiags(), All()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				RelatedLocations []struct {
					Message struct {
						Text string `json:"text"`
					} `json:"message"`
				} `json:"relatedLocations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &log); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Fatalf("wrong envelope: version %q schema %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "sysproflint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(All()) {
		t.Errorf("want %d rules, got %d", len(All()), len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "nonblock" || r.Level != "error" {
		t.Errorf("result[0] = %s/%s", r.RuleID, r.Level)
	}
	if got := r.Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "internal/kprof/kprof.go" {
		t.Errorf("URI not module-relative: %q", got)
	}
	if got := r.Locations[0].PhysicalLocation.Region.StartLine; got != 42 {
		t.Errorf("startLine = %d", got)
	}
	if len(r.RelatedLocations) != 1 || r.RelatedLocations[0].Message.Text != "calls net.Write" {
		t.Errorf("chain not carried as relatedLocations: %+v", r.RelatedLocations)
	}
}
