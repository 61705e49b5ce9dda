// Command benchcmp is the repository's one performance gate. It runs the
// benchmark BENCHMARK.json declares (flexbench, bench/README.md) on a base
// revision and on the working tree in alternating pairs, so that both
// sides meet the same host, and fails when the working tree is worse.
//
// Usage, from the repository root:
//
//	go run ./scripts/benchcmp <base-rev>     (make benchcmp BASE=<rev>)
//
// The base revision is checked out as a detached git worktree under
// .bench_build/base and removed on exit. Workloads, run length, metrics
// and bounds come from BENCHMARK.json; the base revision is the only
// input. A run whose only failed check is flexbench's generator-lateness
// check is rerun once. docs/TESTING.md gives the rules. Exit status:
// 0 pass, 1 fail, 2 usage.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// pairs is how many base/change pairs run per workload: the fewest that
// give each side a median and two quartiles, about a quarter of an hour
// for the four workloads on a 2-vCPU host.
const pairs = 5

// ungated are end-to-end metrics every flexbench run reports beside the
// gated ones. They drift with the host by more than any bound could allow
// (bench/README.md, Stability), so they are printed, not judged.
var ungated = []gate{
	{Name: "capacity_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
}

// Verdicts of one row.
const (
	pass       = "ok"
	fail       = "FAIL"
	unresolved = "unresolved"
	notGated   = "not gated"
)

// sides names the two trees: the base revision, then the working tree.
var sides = [2]string{"base", "change"}

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command    []string
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []gate `json:"end_to_end"`
}

// gate is one end-to-end metric. Bound is the largest relative worsening
// of the median that passes; 0 means not gated.
type gate struct {
	Name, Unit, Better string
	Bound              float64
}

// result is one workload's entry in a flexbench --json report.
type result struct {
	Workload          string
	Metrics, Extra    []metric
	Checks            []check
	Attempted, Failed int
}

type metric struct {
	Name  string
	Value float64
}

type check struct {
	Name, Detail string
	OK           bool
}

// value is the named metric's value, NaN when the report lacks it.
func (r *result) value(name string) float64 {
	for _, m := range slices.Concat(r.Metrics, r.Extra) {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var sp spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if len(args) != 1 || strings.HasPrefix(args[0], "-") || err != nil || len(sp.Command) == 0 {
		fmt.Fprintf(stderr, "usage, from the repository root: benchcmp <base-rev> (BENCHMARK.json: %v)\n", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "benchcmp: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	trees := [2]string{filepath.Join(root, ".bench_build", "base"), root}
	removeWorktree(trees[0])
	defer removeWorktree(trees[0])
	add := exec.Command("git", "worktree", "add", "--detach", trees[0], args[0])
	add.Stdout, add.Stderr = stderr, stderr
	if err := add.Run(); err != nil {
		fmt.Fprintf(stderr, "benchcmp: check out %s: %v\n", args[0], err)
		return 1
	}

	// Pair i runs every workload on both trees with seed i, the base
	// first on odd pairs. A run that wrote no report leaves nil; a run
	// that failed only the lateness check is run once more.
	runs := make(map[string][2][]*result)
	var reruns []string
	for pair := 1; pair <= pairs; pair++ {
		order := [2]int{0, 1}
		if pair%2 == 0 {
			order = [2]int{1, 0}
		}
		for _, w := range sp.Workloads {
			got := runs[w.Name]
			for _, s := range order {
				fmt.Fprintf(stderr, "benchcmp: pair %d/%d, %s, %s\n", pair, pairs, w.Name, sides[s])
				r, err := benchRun(ctx, sp, trees[s], w.Name, pair, stderr)
				if err == nil && invalid(r) {
					rerun := fmt.Sprintf("pair %d, %s, %s: failed only %q, rerun with seed %d", pair, w.Name, sides[s], latenessCheck, pair)
					fmt.Fprintf(stderr, "benchcmp: %s\n", rerun)
					reruns = append(reruns, rerun)
					r, err = benchRun(ctx, sp, trees[s], w.Name, pair, stderr)
				}
				if ctx.Err() != nil {
					fmt.Fprintln(stderr, "benchcmp: interrupted")
					return 1
				}
				if err != nil {
					fmt.Fprintf(stderr, "benchcmp: %v\n", err)
				}
				got[s] = append(got[s], r)
			}
			runs[w.Name] = got
		}
	}

	var rows []row
	var problems []string
	for _, w := range sp.Workloads {
		r, p := compare(sp, w.Name, runs[w.Name][0], runs[w.Name][1])
		rows, problems = append(rows, r...), append(problems, p...)
	}
	fmt.Fprintf(stdout, "benchcmp: %s against the working tree, %d alternating pairs of %g s runs per workload\n", args[0], pairs, sp.RunSeconds)
	for _, r := range reruns {
		fmt.Fprintf(stdout, "benchcmp: %s\n", r)
	}
	printRows(stdout, rows)
	for _, p := range problems {
		fmt.Fprintf(stdout, "benchcmp: FAIL %s\n", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "benchcmp: pass")
	return 0
}

// latenessCheck is the flexbench check that the load generator sent on
// schedule. A run that fails it measured the generator, not the program
// (bench/README.md, Checks): the run is invalid, not worse.
const latenessCheck = "generator lateness p99 <= 5 ms"

// invalid reports whether the lateness check is the only check r failed.
// Such a run is rerun once with the same seed and the rerun judged in its
// place, as any run is.
func invalid(r *result) bool {
	late := false
	for _, c := range r.Checks {
		if !c.OK {
			if c.Name != latenessCheck {
				return false
			}
			late = true
		}
	}
	return late
}

// removeWorktree deletes the base checkout and git's record of it, also
// what a killed earlier run left behind.
func removeWorktree(dir string) {
	_ = exec.Command("git", "worktree", "remove", "--force", dir).Run() // fails when there is none
	_ = os.RemoveAll(dir)
	_ = exec.Command("git", "worktree", "prune").Run()
}

// benchRun runs the benchmark command once in dir and reads the report it
// wrote under dir's .bench_build, which the command creates. flexbench
// writes its report even when a check fails, so its exit status adds
// nothing the report does not say.
func benchRun(ctx context.Context, sp spec, dir, workload string, seed int, log io.Writer) (*result, error) {
	file := filepath.Join(dir, ".bench_build", fmt.Sprintf("benchcmp-%s-%d.json", workload, seed))
	_ = os.Remove(file) // a report an earlier gate left must not stand in for this run
	cmd := exec.CommandContext(ctx, sp.Command[0], append(slices.Clone(sp.Command[1:]), "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "--json", file)...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, log, log
	status := cmd.Run()
	var rep struct{ Results []*result }
	data, err := os.ReadFile(file)
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil || len(rep.Results) != 1 || rep.Results[0].Workload != workload {
		return nil, fmt.Errorf("no %s report from the run (exit: %v, report: %v)", workload, status, err)
	}
	return rep.Results[0], nil
}

// row is one line of the comparison.
type row struct {
	name, unit   string
	base, change float64 // medians over the pairs
	worse        float64 // how much worse the change's median is, relative to the base's
	spread       float64 // the base runs' interquartile range over their median
	bound        float64 // NaN where not gated
	verdict      string
}

// compare judges one workload's runs, base and change in pair order. It
// returns the rows to print and one line per reason the gate fails; no
// lines is a pass.
func compare(sp spec, workload string, base, change []*result) (rows []row, problems []string) {
	var failed, attempted [2]int
	missing := false
	for i := range base {
		for s, r := range [2]*result{base[i], change[i]} {
			if r == nil {
				missing = true
				problems = append(problems, fmt.Sprintf("%s: the %s run of pair %d wrote no report", workload, sides[s], i+1))
				continue
			}
			failed[s] += r.Failed
			attempted[s] += r.Attempted
			for _, c := range r.Checks {
				if s == 1 && !c.OK {
					problems = append(problems, fmt.Sprintf("%s: the change run of pair %d failed check %q: %s", workload, i+1, c.Name, c.Detail))
				}
			}
		}
	}
	if missing {
		return nil, problems
	}

	for _, g := range slices.Concat(sp.EndToEnd, ungated) {
		var vals [2][]float64
		for i := range base {
			vals[0] = append(vals[0], base[i].value(g.Name))
			vals[1] = append(vals[1], change[i].value(g.Name))
		}
		if slices.ContainsFunc(slices.Concat(vals[0], vals[1]), math.IsNaN) {
			if g.Bound > 0 {
				problems = append(problems, fmt.Sprintf("%s/%s: missing from a report", workload, g.Name))
			}
			continue
		}
		r := judge(g, vals[0], vals[1])
		r.name = workload + "/" + g.Name
		if r.verdict == fail {
			problems = append(problems, fmt.Sprintf("%s: the change's median is worse than the base's by %.3f, beyond the bound %g", r.name, r.worse, g.Bound))
		}
		rows = append(rows, r)
	}

	share := func(s int) float64 { return float64(failed[s]) / float64(max(attempted[s], 1)) }
	r := row{name: workload + "/failed_share", base: share(0), change: share(1), worse: math.NaN(), spread: math.NaN(), bound: math.NaN(), verdict: pass}
	if r.change > r.base {
		r.verdict = fail
		problems = append(problems, fmt.Sprintf("%s: %d of %d operations failed on the change, %d of %d on the base", workload, failed[1], attempted[1], failed[0], attempted[0]))
	}
	return append(rows, r), problems
}

// judge compares one metric's runs. The change fails when its median is
// worse than the base's by more than the bound. Where the base's own
// spread is wider than the bound, the pairs cannot tell a regression of
// that size from the host, so the row is unresolved and does not fail;
// it still fails when, beyond the bound, every change run is worse than
// every base run, and it is ok when every change run is better.
func judge(g gate, base, change []float64) row {
	q1, mb, q3 := quartiles(base)
	_, mc, _ := quartiles(change)
	r := row{unit: g.Unit, base: mb, change: mc, worse: (mc - mb) / mb, spread: (q3 - q1) / mb, bound: g.Bound, verdict: pass}
	above := slices.Min(change) > slices.Max(base) // every change run above every base run
	below := slices.Max(change) < slices.Min(base)
	allWorse, allBetter := above, below
	if g.Better == "higher" {
		r.worse, allWorse, allBetter = -r.worse, below, above
	}
	switch {
	case g.Bound == 0:
		r.verdict, r.bound = notGated, math.NaN()
	case r.worse > g.Bound && (r.spread <= g.Bound || allWorse):
		r.verdict = fail
	case r.spread > g.Bound && !allBetter:
		r.verdict = unresolved
	}
	return r
}

// quartiles returns the first quartile, median and third quartile of v
// (at least two values) by the method of Python's
// statistics.quantiles(v, n=4), the one bench/README.md's spreads use.
func quartiles(v []float64) (q1, median, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// printRows writes the comparison table; "-" marks a number that does not
// apply to the row.
func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload/metric\tbase median\tchange median\tworse by\tbase spread\tbound\tverdict")
	num := func(format string, v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf(format, v)
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4g %s\t%.4g %s\t%s\t%s\t%s\t%s\n", r.name, r.base, r.unit, r.change, r.unit,
			num("%+.3f", r.worse), num("%.3f", r.spread), num("%g", r.bound), r.verdict)
	}
	tw.Flush()
}
