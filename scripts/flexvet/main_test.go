package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixture is a synthetic multi-file package seeded with one violation per
// file; the driver must report exactly these, in this (sorted) order. It
// sits at the internal/pipeline path suffix, so the same seeded time.Now()
// would fail `make lint` in a real package.
const fixture = "testdata/src/internal/pipeline"

var seeded = []struct {
	file     string
	line     int
	analyzer string
}{
	{"testdata/src/internal/pipeline/clock.go", 11, "clockcheck"},
	{"testdata/src/internal/pipeline/doc.go", 6, "doccheck"},
	{"testdata/src/internal/pipeline/guard.go", 14, "mutexguard"},
}

// flowFixture seeds the two flow-aware analyzers plus the malformed-
// directive pseudo-rule: exactly one violation per file, every other
// function clean under the full suite.
const flowFixture = "testdata/src/internal/market"

var seededFlow = []struct {
	file     string
	line     int
	analyzer string
}{
	{"testdata/src/internal/market/errflow.go", 7, "errflow"},
	{"testdata/src/internal/market/flow.go", 31, "flexvet"},
	{"testdata/src/internal/market/lockorder.go", 8, "lockorder"},
}

func runDriver(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSeededViolationsJSON(t *testing.T) {
	code, out, errOut := runDriver(t, "-format", "json", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, out)
	}
	if len(diags) != len(seeded) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(seeded), out)
	}
	for i, want := range seeded {
		d := diags[i]
		if d.File != want.file || d.Line != want.line || d.Analyzer != want.analyzer {
			t.Errorf("diag[%d] = %s:%d [%s], want %s:%d [%s]",
				i, d.File, d.Line, d.Analyzer, want.file, want.line, want.analyzer)
		}
		if d.Col <= 0 || d.Message == "" {
			t.Errorf("diag[%d] is missing its column or message: %+v", i, d)
		}
	}
	if !strings.Contains(errOut, "3 finding(s)") {
		t.Errorf("stderr summary missing finding count: %q", errOut)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	_, out, _ := runDriver(t, "-format", "json", fixture)
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("decode: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(diags); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if buf.String() != out {
		t.Errorf("decode/encode does not reproduce the driver output\n got:\n%s\nwant:\n%s", buf.String(), out)
	}
}

func TestSeededViolationsText(t *testing.T) {
	code, out, _ := runDriver(t, fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(seeded) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(seeded), out)
	}
	for i, want := range seeded {
		prefix := fmt.Sprintf("%s:%d:", want.file, want.line)
		tag := "[" + want.analyzer + "]"
		if !strings.HasPrefix(lines[i], prefix) || !strings.Contains(lines[i], tag) {
			t.Errorf("line %d = %q, want prefix %q and tag %q", i, lines[i], prefix, tag)
		}
	}
}

// TestSeededFlowViolations pins the flow-analyzer fixture to its exact
// finding set: one violation per file, nothing else. A regression in the
// CFG or any analyzer's matching shows up here as a changed set.
func TestSeededFlowViolations(t *testing.T) {
	code, out, errOut := runDriver(t, "-format", "json", flowFixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, out)
	}
	if len(diags) != len(seededFlow) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(seededFlow), out)
	}
	for i, want := range seededFlow {
		d := diags[i]
		if d.File != want.file || d.Line != want.line || d.Analyzer != want.analyzer {
			t.Errorf("diag[%d] = %s:%d [%s], want %s:%d [%s]",
				i, d.File, d.Line, d.Analyzer, want.file, want.line, want.analyzer)
		}
	}
	if !strings.Contains(errOut, "3 finding(s)") {
		t.Errorf("stderr summary missing finding count: %q", errOut)
	}
}

// TestSARIFGolden pins the -format sarif rendering of the pipeline fixture
// byte-for-byte. Regenerate with:
//
//	go run . -format sarif testdata/src/internal/pipeline > testdata/pipeline.sarif
func TestSARIFGolden(t *testing.T) {
	code, out, _ := runDriver(t, "-format", "sarif", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	golden, err := os.ReadFile("testdata/pipeline.sarif")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("SARIF output diverges from testdata/pipeline.sarif\n got:\n%s\nwant:\n%s", out, golden)
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
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "flexvet" {
		t.Fatalf("SARIF envelope is malformed: version=%q runs=%d", log.Version, len(log.Runs))
	}
	rules := make(map[string]bool)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, a := range lint.All() {
		if !rules[a.Name] {
			t.Errorf("rule table is missing analyzer %s", a.Name)
		}
	}
	if !rules["flexvet"] {
		t.Error("rule table is missing the flexvet pseudo-rule")
	}
	for i, r := range log.Runs[0].Results {
		if !rules[r.RuleID] {
			t.Errorf("result[%d] ruleId %q does not resolve in the rule table", i, r.RuleID)
		}
		if r.Level != "error" {
			t.Errorf("result[%d] level = %q, want error", i, r.Level)
		}
	}
}

// TestSARIFCleanRun checks the empty-tree shape: a run with a full rule
// table and an empty (non-null) results array, exit 0.
func TestSARIFCleanRun(t *testing.T) {
	code, out, errOut := runDriver(t, "-format", "sarif", "testdata/src/clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errOut)
	}
	var log struct {
		Runs []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
		t.Errorf("clean SARIF run must carry an empty results array, got:\n%s", out)
	}
}

func TestCleanPackage(t *testing.T) {
	code, out, errOut := runDriver(t, "testdata/src/clean")
	if code != 0 || out != "" || errOut != "" {
		t.Errorf("clean run: exit=%d stdout=%q stderr=%q, want 0 with no output", code, out, errOut)
	}
	code, out, _ = runDriver(t, "-format", "json", "testdata/src/clean")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -format json run: exit=%d stdout=%q, want 0 with an empty array", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runDriver(t, "no/such/dir"); code != 2 {
		t.Errorf("missing package dir must exit 2, got %d", code)
	}
	if code, _, errOut := runDriver(t, "-format", "yaml", fixture); code != 2 || !strings.Contains(errOut, "unknown format") {
		t.Errorf("unknown format: exit=%d stderr=%q, want 2 with an explanation", code, errOut)
	}
}

func TestListAnalyzers(t *testing.T) {
	code, out, _ := runDriver(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, a := range lint.All() {
		if !strings.Contains(out, a.Name) || !strings.Contains(out, a.Doc) {
			t.Errorf("-list output is missing analyzer %s", a.Name)
		}
	}
}
