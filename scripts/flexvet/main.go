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
//	go run ./scripts/flexvet [-format text|json|sarif] [-list] [packages...]
//
// Packages default to ./... (module-wide), and every analyzer runs.
// Findings print as file:line:col: [analyzer] message, as a JSON array
// with -format json, or as a SARIF 2.1.0 log with -format sarif for
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

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body: parse flags, load packages, run every
// analyzer, print findings.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text, json, or sarif")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: flexvet [-format text|json|sarif] [-list] [packages...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
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
	analyzers := lint.All()
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
