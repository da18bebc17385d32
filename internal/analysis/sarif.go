package analysis

import (
	"path/filepath"
	"strings"
)

// SARIF output for CI: the Static Analysis Results Interchange Format
// (2.1.0), the shape code-scanning services ingest to annotate pull
// requests inline. The encoding is deliberately minimal — one run, one
// rule per analyzer, one result per diagnostic — and deterministic, so
// repeated runs over an unchanged tree produce byte-identical files.

// sarifLog is the document root.
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
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
	// RelatedLocations carries the other ends of an interprocedural
	// finding (decode site and callee sink, lock acquisition and blocking
	// leaf) so code scanning renders the full chain, not just the report
	// line.
	RelatedLocations []sarifLocation `json:"relatedLocations,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
	Message          *sarifMessage         `json:"message,omitempty"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF builds a SARIF 2.1.0 log from the diagnostics. moduleDir, when
// non-empty, is stripped from file paths so artifact URIs are
// repo-relative (what PR annotation needs); analyzers supplies the rule
// metadata, and the allowcheck pseudo-rule is always present because Run
// can emit it regardless of the enabled set.
func SARIF(diags []Diagnostic, analyzers []*Analyzer, moduleDir string) *sarifLog {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{
		ID:               "allowcheck",
		ShortDescription: sarifMessage{Text: "flag //fractal:allow annotations that no longer suppress anything"},
	})
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		var related []sarifLocation
		for _, r := range d.Related {
			if r.File == "" {
				continue
			}
			related = append(related, sarifLocation{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: sarifURI(r.File, moduleDir)},
					Region:           sarifRegion{StartLine: r.Line, StartColumn: r.Col},
				},
				Message: &sarifMessage{Text: r.Message},
			})
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: sarifURI(d.File, moduleDir)},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
			RelatedLocations: related,
		})
	}
	return &sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "fractal-vet", Rules: rules}},
			Results: results,
		}},
	}
}

// sarifURI renders a diagnostic's file as a forward-slash URI relative to
// the module root (falling back to the absolute path for files outside
// it).
func sarifURI(file, moduleDir string) string {
	if moduleDir != "" {
		if rel, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}
