// Command flexvet is the repository's domain-aware static-analysis suite.
// It loads and type-checks packages with the standard library only and runs
// the internal/lint analyzers over them — the invariants of the flex-offer
// model that go vet cannot know about: offers validated before they travel,
// no exact float comparison on energies, injected clocks in replayable
// paths, checked journal and store errors, acyclic lock order,
// mutex-guarded state accessed under its lock, and documented contract
// packages.
//
// Usage:
//
//	go run ./scripts/flexvet [-format text|json|sarif] [-enable a,b] [-disable a,b] [packages...]
//
// Packages default to ./... (module-wide). Findings print as
// file:line:col: [analyzer] message, as a JSON array with -format json
// (-json is a shorthand), or as a SARIF 2.1.0 log with -format sarif for
// code-scanning upload. A finding is suppressed by "//lint:ignore
// <analyzer> <reason>" on its line or the line above. Exit status: 0
// clean, 1 findings, 2 usage or load error. docs/LINTING.md describes
// every analyzer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body: parse flags, load packages, run the
// selected analyzers, print findings.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (same as -format json)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: flexvet [-json] [-format text|json|sarif] [-enable a,b] [-disable a,b] [packages...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut {
		*format = "json"
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "flexvet: unknown format %q (text, json, sarif)\n", *format)
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintf(stderr, "flexvet: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "flexvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "flexvet: %v\n", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers)

	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "flexvet: %v\n", err)
			return 2
		}
	case "sarif":
		if err := writeSARIF(stdout, analyzers, diags); err != nil {
			fmt.Fprintf(stderr, "flexvet: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "flexvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -enable / -disable flags against the
// registry.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	chosen := lint.All()
	if enable != "" {
		chosen = chosen[:0:0]
		for _, name := range splitList(enable) {
			a := lint.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			chosen = append(chosen, a)
		}
	}
	if disable != "" {
		skip := make(map[string]bool)
		for _, name := range splitList(disable) {
			if lint.ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			skip[name] = true
		}
		kept := chosen[:0:0]
		for _, a := range chosen {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		chosen = kept
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].Name < chosen[j].Name })
	return chosen, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
