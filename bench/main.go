// Command flexbench is the repository's benchmark for the paper's loop:
// extract flex-offers from household series, collect and accept them,
// aggregate, schedule and assign. It runs four workloads (see workloads
// below and README.md) and prints every metric by name, unit and sample
// count, then one JSON line with the run's verdict.
//
// An end-to-end run builds ./cmd/mirabeld from the checkout, starts it
// with the workload's flags and drives it over HTTP on at most two
// connections; the extract workload runs the extraction pipeline in this
// process. A -trace run assembles the same stack in this process from the
// public constructors cmd/mirabeld calls, times each layer boundary from
// the benchmark's own wrappers, and reports per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload ingest-always --seed 1 --seconds 12 --trace 0
//	cd bench && go run . -workload all -seed 1 [-trace] [-quick] [-json out.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	jsonOut  string
	traceDir string
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(*env) (*result, error)
}

// workloads lists every workload in run order; BENCHMARK.json carries the
// same names and reasons (TestBenchmarkJSON keeps them in step).
var workloads = []workload{
	{"ingest-always", "Journaled with -fsync always and the scheduler assigning: every transition pays encode, write and fsync under the shard lock, so journal and WAL changes show here.", ingestAlways.run},
	{"ingest-memory", "The same ingest traffic in memory: journal and WAL are bypassed, so journal changes must leave it flat while HTTP, admission, store and scheduler changes show.", ingestMemory.run},
	{"portfolio", "A large seeded store with Zipf-skewed reads beside writes and a crash recovery: list encoding, the O(store) owner filter, KPI and aggregate reads, journal without per-op fsync.", portfolio.run},
	{"extract", "The paper's own computation, in process: household and appliance extractors through the pipeline. Only core, pipeline and timeseries work, so daemon changes must leave it flat.", runExtract},
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if opts.workload == "all" || opts.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "flexbench: unknown workload %q\n", opts.workload)
		return 2
	}
	e, err := newEnv(opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "flexbench: %v\n", err)
		return 1
	}
	defer e.close()

	var results []*result
	for _, w := range selected {
		e.work = filepath.Join(e.build, "run", fmt.Sprintf("%s-%d-%d", w.name, opts.seed, os.Getpid()))
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			fmt.Fprintf(stderr, "flexbench: %v\n", err)
			return 1
		}
		r, err := w.run(e)
		_ = os.RemoveAll(e.work) // generated inputs and data directories only; a leftover is harmless
		if err != nil {
			fmt.Fprintf(stderr, "flexbench: %s: %v\n", w.name, err)
			return 1
		}
		r.finish()
		r.print(stdout)
		results = append(results, r)
	}
	if opts.jsonOut != "" {
		if err := writeReport(opts.jsonOut, e, results); err != nil {
			fmt.Fprintf(stderr, "flexbench: %v\n", err)
			return 1
		}
	}
	line, ok := verdict(results)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// parseFlags reads the flags. Both the single-dash Go form (-trace) and
// the --trace 0|1 form are accepted.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.root, "root", "", "repository root (default: the directory holding cmd/mirabeld, . or ..)")
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all | "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 12, "measured seconds per workload (daemons: half open loop, half closed loop; extract: one batch)")
	fs.BoolVar(&o.trace, "trace", false, "report per-layer metrics from an in-process traced run instead of end-to-end metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: in process, small inputs, one set-up, half a second measured per workload")
	fs.StringVar(&o.jsonOut, "json", "", "also write every metric with its run metadata to this file")
	fs.StringVar(&o.traceDir, "trace-dir", "", "where -trace writes trace-<workload>.json (default .bench_build/traces)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "flexbench: unexpected arguments %q\n", fs.Args())
		return o, errors.New("unexpected arguments")
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "flexbench: -seconds must be positive")
		return o, errors.New("bad -seconds")
	}
	if o.quick {
		o.seconds = 0.5
	}
	return o, nil
}

// normalizeArgs turns "--trace 0|1" into "-trace=0|1": a boolean flag
// does not take a separate value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch v := args[i+1]; v {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+v)
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// env is what every workload shares.
type env struct {
	opts     options
	stderr   io.Writer
	build    string   // <root>/.bench_build
	work     string   // this workload's working directory
	mirabeld string   // built daemon binary
	logf     *os.File // daemon output
}

func newEnv(opts options, stderr io.Writer) (*env, error) {
	root, err := findRoot(opts.root)
	if err != nil {
		return nil, err
	}
	opts.root = root
	e := &env{opts: opts, stderr: stderr, build: filepath.Join(root, ".bench_build")}
	if e.opts.traceDir == "" {
		e.opts.traceDir = filepath.Join(e.build, "traces")
	}
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return nil, err
	}
	if e.logf, err = os.Create(filepath.Join(e.build, "mirabeld.log")); err != nil {
		return nil, err
	}
	if !opts.quick {
		// Build the daemon at the commit under test. An end-to-end run
		// executes it; a traced run uses it as the reference the
		// in-process assembly must reproduce.
		e.mirabeld = filepath.Join(e.build, "mirabeld")
		cmd := exec.Command("go", "build", "-o", e.mirabeld, "./cmd/mirabeld")
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = stderr, stderr
		if err := cmd.Run(); err != nil {
			e.close()
			return nil, fmt.Errorf("build mirabeld: %w", err)
		}
	}
	return e, nil
}

// findRoot resolves the repository root: the directory holding
// cmd/mirabeld.
func findRoot(root string) (string, error) {
	candidates := []string{root}
	if root == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if st, err := os.Stat(filepath.Join(c, "cmd", "mirabeld")); err == nil && st.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no cmd/mirabeld under %q; run from the repository root or pass -root", strings.Join(candidates, `" or "`))
}

func (e *env) close() {
	if e.logf != nil {
		e.logf.Close()
	}
}

// progress notes what the run is doing on stderr.
func (e *env) progress(format string, args ...any) {
	fmt.Fprintf(e.stderr, "flexbench: "+format+"\n", args...)
}

// mode names how this invocation measures.
func (e *env) mode() string {
	switch {
	case e.opts.trace:
		return "traced"
	case e.opts.quick:
		return "in-process"
	}
	return "exec"
}

// timing is how long each part of a run lasts.
type timing struct {
	warmup, open, closed time.Duration
	setups               setupPlan
}

// setupPlan is how often a run sets up before it measures: at least min
// times and until the set-ups took budget, at most max times. The median
// is reported, so an empty daemon's 4 ms start gets more samples than the
// portfolio's seeding of more than a second.
type setupPlan struct {
	min, max int
	budget   time.Duration
}

// more reports whether another set-up follows done set-ups that took spent.
func (p setupPlan) more(done int, spent time.Duration) bool {
	return done < p.min || (done < p.max && spent < p.budget)
}

func (e *env) timing() timing {
	total := time.Duration(e.opts.seconds * float64(time.Second))
	t := timing{
		warmup: 2 * time.Second, open: total / 2, closed: total - total/2,
		setups: setupPlan{min: 5, max: 25, budget: 2 * time.Second},
	}
	if e.opts.quick {
		t.warmup = 200 * time.Millisecond
	}
	if e.opts.quick || e.opts.trace {
		t.setups = setupPlan{min: 1, max: 1}
	}
	return t
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// check is one correctness check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is one workload's outcome.
type result struct {
	Workload  string         `json:"workload"`
	Mode      string         `json:"mode"`
	Metrics   []metric       `json:"metrics"` // the BENCHMARK.json set of this mode
	Extra     []metric       `json:"extra"`   // workload-specific numbers outside the gated set
	Checks    []check        `json:"checks"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Meta      map[string]any `json:"meta"`
}

func newResult(workload, mode string) *result {
	return &result{Workload: workload, Mode: mode, Meta: map[string]any{}}
}

func (r *result) metric(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *result) extra(name string, v float64, unit string, n int) {
	r.Extra = append(r.Extra, metric{name, v, unit, n})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// finish fails the run on any number JSON cannot carry.
func (r *result) finish() {
	for _, list := range [][]metric{r.Metrics, r.Extra} {
		for i := range list {
			if v := list[i].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				r.check("finite "+list[i].Name, false, "value %v (too few samples or every request failed)", v)
				list[i].Value = -1
			}
		}
	}
}

func (r *result) ok() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s)\n", r.Workload, r.Mode)
	keys := make([]string, 0, len(r.Meta))
	for k := range r.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %-24s %v\n", k, r.Meta[k])
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %-34s %14.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range r.Extra {
		fmt.Fprintf(w, "   %-34s %14.6g %-8s n=%d  (not gated)\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d\n", r.Attempted, r.Failed)
}

// verdict renders the closing JSON line: the one workload's result, or for
// several workloads their union with metric names prefixed by workload.
func verdict(results []*result) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		out.Correct = out.Correct && r.ok()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "/" + m.Name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(out.Attempted, 1), out.Failed), false
	}
	return string(data), out.Correct
}

// writeReport writes every result with the run's metadata to path.
func writeReport(path string, e *env, results []*result) error {
	nproc := runtime.NumCPU()
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.opts.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	data, err := json.MarshalIndent(struct {
		Commit     string    `json:"commit"`
		GoMaxProcs int       `json:"gomaxprocs"`
		NProc      int       `json:"nproc"`
		Seed       int64     `json:"seed"`
		Seconds    float64   `json:"seconds"`
		Mode       string    `json:"mode"`
		At         time.Time `json:"at"`
		Results    []*result `json:"results"`
	}{commit, runtime.GOMAXPROCS(0), nproc, e.opts.seed, e.opts.seconds, e.mode(), time.Now().UTC(), results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
