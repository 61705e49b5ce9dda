package experiments

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/timeseries"
)

func TestAllExperimentsRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 16 {
		t.Fatalf("experiments = %d, want 16", len(exps))
	}
	seen := map[string]bool{}
	for i, e := range exps {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByID(t *testing.T) {
	if e, ok := ByID("E3"); !ok || e.ID != "E3" {
		t.Errorf("ByID(E3) = %+v, %v", e, ok)
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) found")
	}
}

func TestRunE1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE1(&buf); err != nil {
		t.Fatalf("RunE1: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"22:00", "05:00", "07:00", "7h0m0s", "50.0 kWh", "charging profile"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q", want)
		}
	}
}

func TestRunE2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE2(&buf); err != nil {
		t.Fatalf("RunE2: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "4 flex-offers extracted") {
		t.Errorf("E2 did not extract 4 offers:\n%s", out)
	}
	if !strings.Contains(out, "energy accounting") {
		t.Error("E2 missing accounting line")
	}
}

func TestRunE3ReproducesPaperNumbers(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE3(&buf); err != nil {
		t.Fatalf("RunE3: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"39.02", "1.951", "2.22", "5.47"} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 output missing %q", want)
		}
	}
	// Empirical selection frequencies within a few points of 29/71.
	re := regexp.MustCompile(`peak6 \(15:30\) (\d+\.\d)%, peak7 \(18:00\) (\d+\.\d)%`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("E3 missing selection line:\n%s", out)
	}
}

func TestRunE4ListsTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE4(&buf); err != nil {
		t.Fatalf("RunE4: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"vacuum cleaning robot X", "washing machine Y", "dishwasher Z",
		"small electric vehicle", "medium electric vehicle", "large electric vehicle"} {
		if !strings.Contains(out, want) {
			t.Errorf("E4 missing %q", want)
		}
	}
}

// Small-sized versions of the heavier experiments keep the test suite fast
// while still executing every code path.
func TestRunE5Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE5Sized(&buf, 5, 7); err != nil {
		t.Fatalf("E5: %v", err)
	}
	if !strings.Contains(buf.String(), "in 0.1-6.5% band") {
		t.Error("E5 missing band column")
	}
}

func TestRunE6Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE6Sized(&buf, 14); err != nil {
		t.Fatalf("E6: %v", err)
	}
	if !strings.Contains(buf.String(), "shift prob") {
		t.Error("E6 missing sweep table")
	}
}

func TestRunE7Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE7Sized(&buf, 10); err != nil {
		t.Fatalf("E7: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "precision") || !strings.Contains(out, "energy accounting") {
		t.Errorf("E7 output incomplete:\n%s", out)
	}
}

func TestRunE8Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE8Sized(&buf, 7); err != nil {
		t.Fatalf("E8: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"1m0s", "15m0s", "30m0s"} {
		if !strings.Contains(out, want) {
			t.Errorf("E8 missing resolution %q", want)
		}
	}
}

func TestRunE9Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE9Sized(&buf, 21); err != nil {
		t.Fatalf("E9: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "schedule-based") || !strings.Contains(out, "frequency-based") {
		t.Errorf("E9 missing comparison:\n%s", out)
	}
}

func TestRunE10Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE10Sized(&buf, 10); err != nil {
		t.Fatalf("E10: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"random", "basic", "peak", "frequency"} {
		if !strings.Contains(out, want) {
			t.Errorf("E10 missing approach %q", want)
		}
	}
}

func TestRunE11Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE11Sized(&buf, 10, 3); err != nil {
		t.Fatalf("E11: %v", err)
	}
	if !strings.Contains(buf.String(), "corr. w/ population load") {
		t.Error("E11 missing correlation column")
	}
}

func TestRunE12Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE12Sized(&buf, 10, 3); err != nil {
		t.Fatalf("E12: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "no-flexibility baseline") || !strings.Contains(out, "improvement vs baseline") {
		t.Errorf("E12 output incomplete:\n%s", out)
	}
}

func TestAsciiChart(t *testing.T) {
	var buf bytes.Buffer
	s := timeseries.MustNew(day0, 15*time.Minute, []float64{0, 1, 2, 1, 0})
	asciiChart(&buf, s, 4, 1, "test")
	out := buf.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "test") {
		t.Errorf("chart output:\n%s", out)
	}
	// Degenerate cases do not panic.
	asciiChart(io.Discard, timeseries.MustNew(day0, time.Minute, nil), 4, 0, "empty")
	asciiChart(io.Discard, s, 0, 0, "no height")
	zero := timeseries.MustNew(day0, time.Minute, []float64{0, 0})
	asciiChart(io.Discard, zero, 3, 0, "zeros")
}

func TestTableWriter(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("a", "bee")
	tb.add("1", "2")
	tb.addf("%d|%s", 10, "xyz")
	tb.write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "bee") || !strings.Contains(lines[3], "xyz") {
		t.Errorf("table content:\n%s", out)
	}
}

func TestRunE13Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE13Sized(&buf, 5, 3); err != nil {
		t.Fatalf("E13: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "holt-winters") || !strings.Contains(out, "forecast error") {
		t.Errorf("E13 output incomplete:\n%s", out)
	}
}

func TestRunE14Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE14Sized(&buf, 7); err != nil {
		t.Fatalf("E14: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "daily mean (paper)") || !strings.Contains(out, "q90") {
		t.Errorf("E14 output incomplete:\n%s", out)
	}
}

func TestRunE15Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE15Sized(&buf, 3); err != nil {
		t.Fatalf("E15: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "offered kWh") || !strings.Contains(out, "uncertainty") {
		t.Errorf("E15 output incomplete:\n%s", out)
	}
}

func TestRunE16Small(t *testing.T) {
	var buf bytes.Buffer
	if err := runE16Sized(&buf, 7); err != nil {
		t.Fatalf("E16: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "phase median") || !strings.Contains(out, "block quantile") {
		t.Errorf("E16 output incomplete:\n%s", out)
	}
}

// TestRunAllMatchesCommittedOutput pins every experiment's report to the
// committed experiments_output.txt, byte for byte: the runs are seeded, so
// any difference is either a deliberate change (regenerate the file) or
// lost determinism.
func TestRunAllMatchesCommittedOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("experiments_output.txt was generated on amd64; on %s Go may fuse multiply-adds and move the last digits", runtime.GOARCH)
	}
	want, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunAll(&got); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("RunAll output differs from experiments_output.txt at line %d:\n got: %q\nwant: %q\n"+
				"if the change is intended, regenerate the file with `go run ./cmd/experiments > experiments_output.txt` (EXPERIMENTS.md)",
				i+1, g, w)
		}
	}
}
