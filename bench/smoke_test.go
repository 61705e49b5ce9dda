package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestQuickSmoke runs every workload for about a second in process, once
// untraced and once traced, and requires a clean verdict with every
// metric of the mode present.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	for _, mode := range []struct {
		args []string
		want []string
	}{
		{[]string{"-quick"}, e2eNames()},
		{[]string{"-quick", "-trace", "-trace-dir", t.TempDir()}, layerNames()},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-root", "..", "-workload", "all", "-seed", "7"}, mode.args...)
		code := run(args, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if code != 0 {
			t.Fatalf("%v: exit %d\nstdout:\n%s\nstderr:\n%s", mode.args, code, stdout.String(), stderr.String())
		}
		var verdict struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &verdict); err != nil {
			t.Fatalf("%v: last line is not the verdict: %v", mode.args, err)
		}
		if !verdict.Correct || verdict.Attempted < 1 {
			t.Errorf("%v: verdict %+v", mode.args, verdict)
		}
		for _, w := range workloads {
			for _, m := range mode.want {
				if _, ok := verdict.Metrics[w.name+"/"+m]; !ok {
					t.Errorf("%v: %s reports no %s", mode.args, w.name, m)
				}
			}
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := strings.Join(normalizeArgs([]string{"--workload", "x", "--trace", "0", "-trace", "1", "--seconds", "3", "-trace"}), " ")
	if want := "--workload x -trace=0 -trace=1 --seconds 3 -trace"; got != want {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}

func e2eNames() []string {
	var out []string
	for _, m := range endToEnd {
		out = append(out, m.name)
	}
	return out
}

func layerNames() []string {
	var out []string
	for _, m := range perLayer {
		out = append(out, m.name)
	}
	return out
}
