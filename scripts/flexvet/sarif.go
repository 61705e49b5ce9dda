package main

import (
	"encoding/json"
	"io"

	"repro/internal/lint"
)

// SARIF 2.1.0 output (-format sarif): the minimal subset GitHub code
// scanning ingests — one run, every analyzer as a rule, one result
// per diagnostic with a physical location. Fields are emitted in struct
// order and results arrive pre-sorted from lint.Run, so the output is
// deterministic for a given tree (the golden test pins it).

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
	InformationURI string      `json:"informationUri"`
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
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
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
	StartColumn int `json:"startColumn"`
}

// writeSARIF renders diags as a SARIF 2.1.0 log. The rule table lists the
// analyzers that ran plus the "flexvet" pseudo-rule that carries malformed,
// unknown-analyzer and retired directive reports, so every result's ruleId
// resolves.
func writeSARIF(w io.Writer, analyzers []*lint.Analyzer, diags []lint.Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	rules = append(rules, sarifRule{
		ID:               "flexvet",
		ShortDescription: sarifMessage{Text: "lint directives must parse and name a registered analyzer; malformed or misnamed //lint: comments and retired //flexvet: comments are reported, not ignored"},
	})
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "flexvet", InformationURI: "docs/LINTING.md", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
