package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 output, the minimal subset GitHub code scanning ingests:
// one run, one rule per checker (the rule ID is the checker name, which
// is stable across releases), one result per diagnostic with a physical
// location carrying a URI relative to the module root (so the log is
// stable across checkouts) and a start line/column region.

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

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF encodes diags as a SARIF 2.1.0 log. Every analyzer appears
// in the rule table even when it has no findings, so rule metadata is
// stable regardless of what fired.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, diags []Diagnostic, root string) error {
	rules := make([]sarifRule, len(analyzers))
	index := make(map[string]int, len(analyzers))
	for i, a := range analyzers {
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}}
		index[a.Name] = i
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := index[d.Checker]
		if !ok {
			idx = len(rules)
			index[d.Checker] = idx
			rules = append(rules, sarifRule{ID: d.Checker, ShortDescription: sarifMessage{Text: d.Checker}})
		}
		results = append(results, sarifResult{
			RuleID:    d.Checker,
			RuleIndex: idx,
			Level:     "warning",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(relPath(root, d.Pos.Filename)),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "arlint", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath renders file relative to root when it lies below it, else
// unchanged.
func relPath(root, file string) string {
	if root == "" {
		return file
	}
	//arlint:allow errflow a failed Rel falls back to the absolute path by design
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}
