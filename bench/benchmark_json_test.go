package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// keysOf returns the sorted keys of a JSON object.
func keysOf(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not an object: %s", raw)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestBenchmarkJSON lints BENCHMARK.json: its shape and limits, and that
// it lists exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(t, data); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Errorf("top-level keys %s", got)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	for _, list := range []struct {
		key, want string
	}{{"workloads", "name,why"}, {"end_to_end", "better,bound,name,unit"}, {"per_layer", "better,name,unit"}} {
		var items []json.RawMessage
		if err := json.Unmarshal(raw[list.key], &items); err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if got := keysOf(t, it); got != list.want {
				t.Errorf("%s entry keys %s, want %s", list.key, got, list.want)
			}
		}
	}

	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") || strings.HasPrefix(p, "/") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	workloadNamed := map[string]bool{}
	for i, w := range b.Workloads {
		unique(w.Name)
		workloadNamed[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1–200 characters", w.Name)
		}
		if i < len(workloads) && (workloads[i].name != w.Name || workloads[i].why != w.Why) {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s (or the reasons differ)", i, w.Name, workloads[i].name)
		}
	}

	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the program", n, len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range b.EndToEnd {
		unique(m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if i < len(endToEnd) && (endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit || endToEnd[i].better != m.Better) {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s %s, program %+v", i, m.Name, m.Unit, m.Better, endToEnd[i])
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}

	if n := len(b.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program", n, len(perLayer))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if i >= len(perLayer) {
			continue
		}
		d := perLayer[i]
		if d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s %s, program %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if !(e2e[d.moves] || d.moves == capacityMetric || d.moves == latencyMetric) || !workloadNamed[d.on] {
			t.Errorf("per-layer %s should move %s on %s: no such end-to-end metric or workload", d.name, d.moves, d.on)
		}
	}
}
