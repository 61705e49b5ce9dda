package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runsOf builds one workload's results, one per value, as flexbench
// reports them: the gated metric, a clean check and 100 attempted
// operations.
func runsOf(name string, vals ...float64) []*result {
	out := make([]*result, len(vals))
	for i, v := range vals {
		out[i] = &result{Workload: "w", Metrics: []metric{{Name: name, Value: v}},
			Checks: []check{{Name: "reconciles", OK: true}}, Attempted: 100}
	}
	return out
}

func TestCompareVerdict(t *testing.T) {
	lower := spec{EndToEnd: []gate{{Name: "setup_s", Better: "lower", Bound: 0.25}}}
	higher := spec{EndToEnd: []gate{{Name: "setup_s", Better: "higher", Bound: 0.25}}}
	tight := []float64{1.0, 1.01, 0.99, 1.02, 0.98}
	cases := []struct {
		name         string
		sp           spec
		base, change []*result
		edit         func(base, change []*result)
		verdict      string // of the gated row; "" when there is no table
		fails        bool
	}{
		{
			name: "within bound", sp: lower,
			base: runsOf("setup_s", tight...), change: runsOf("setup_s", 1.05, 1.06, 1.04, 1.1, 1.0),
			verdict: pass,
		},
		{
			// Base spread 0.2, runs overlapping (1.3 < 1.4), median 0.3 worse.
			name: "median beyond bound, tight base spread", sp: lower,
			base: runsOf("setup_s", 1.0, 1.0, 1.0, 1.0, 1.4), change: runsOf("setup_s", 1.3, 1.3, 1.3, 1.3, 1.3),
			verdict: fail, fails: true,
		},
		{
			// Base spread 0.6, median 0.3 worse, runs overlapping.
			name: "wide base spread, overlapping runs", sp: lower,
			base: runsOf("setup_s", 0.6, 0.8, 1.0, 1.2, 1.4), change: runsOf("setup_s", 0.9, 1.1, 1.3, 1.5, 1.7),
			verdict: unresolved,
		},
		{
			name: "wide base spread, every change run worse", sp: lower,
			base: runsOf("setup_s", 0.6, 0.8, 1.0, 1.2, 1.4), change: runsOf("setup_s", 1.5, 1.6, 1.7, 1.8, 1.9),
			verdict: fail, fails: true,
		},
		{
			name: "wide base spread, every change run better", sp: lower,
			base: runsOf("setup_s", 0.6, 0.8, 1.0, 1.2, 1.4), change: runsOf("setup_s", 0.3, 0.35, 0.4, 0.45, 0.5),
			verdict: pass,
		},
		{
			name: "higher is better: a fall fails", sp: higher,
			base: runsOf("setup_s", tight...), change: runsOf("setup_s", 0.7, 0.71, 0.69, 0.72, 0.68),
			verdict: fail, fails: true,
		},
		{
			name: "higher is better: a rise passes", sp: higher,
			base: runsOf("setup_s", tight...), change: runsOf("setup_s", 1.5, 1.51, 1.49, 1.52, 1.48),
			verdict: pass,
		},
		{
			name: "change run fails a check", sp: lower,
			base: runsOf("setup_s", tight...), change: runsOf("setup_s", tight...),
			edit:    func(_, change []*result) { change[2].Checks[0].OK = false },
			verdict: pass, fails: true,
		},
		{
			name: "base run fails a check", sp: lower,
			base: runsOf("setup_s", tight...), change: runsOf("setup_s", tight...),
			edit:    func(base, _ []*result) { base[2].Checks[0].OK = false },
			verdict: pass,
		},
		{
			name: "higher failed share", sp: lower,
			base: runsOf("setup_s", tight...), change: runsOf("setup_s", tight...),
			edit:    func(_, change []*result) { change[4].Failed = 1 },
			verdict: pass, fails: true,
		},
		{
			name: "run without a report", sp: lower,
			base: runsOf("setup_s", tight...), change: runsOf("setup_s", tight...),
			edit:  func(_, change []*result) { change[3] = nil },
			fails: true,
		},
		{
			name: "gated metric missing from a report", sp: lower,
			base: runsOf("setup_s", tight...), change: runsOf("setup_s", tight...),
			edit:  func(_, change []*result) { change[1].Metrics = nil },
			fails: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.edit != nil {
				c.edit(c.base, c.change)
			}
			rows, problems := compare(c.sp, "w", c.base, c.change)
			verdict := ""
			for _, r := range rows {
				if r.name == "w/setup_s" {
					verdict = r.verdict
				}
			}
			if verdict != c.verdict {
				t.Errorf("verdict %q, want %q (rows %+v)", verdict, c.verdict, rows)
			}
			if got := len(problems) > 0; got != c.fails {
				t.Errorf("fails = %v, want %v: %s", got, c.fails, strings.Join(problems, "; "))
			}
		})
	}
}

func TestInvalidRun(t *testing.T) {
	ok := check{Name: "reconciles", OK: true}
	bad := check{Name: "reconciles", Detail: "2 offers lost"}
	late := check{Name: latenessCheck, Detail: "5.900 ms over 12000 open-loop requests"}
	onTime := check{Name: latenessCheck, OK: true}
	cases := []struct {
		name   string
		checks []check
		want   bool
	}{
		{"every check passed", []check{ok, onTime}, false},
		{"only the lateness check failed", []check{ok, late}, true},
		{"the lateness check and another failed", []check{bad, late}, false},
		{"another check failed", []check{bad, onTime}, false},
		{"no checks", nil, false},
	}
	for _, c := range cases {
		if got := invalid(&result{Checks: c.checks}); got != c.want {
			t.Errorf("%s: invalid = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestLatenessCheckIsFlexbenchs keeps latenessCheck the name flexbench
// gives the check, which lives in the separate bench module.
func TestLatenessCheckIsFlexbenchs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "bench", "daemonrun.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), strconv.Quote(latenessCheck)) {
		t.Errorf("bench/daemonrun.go names no check %q", latenessCheck)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %g, %g, %g, want 1.5, 3, 4.5", q1, med, q3)
	}
}
