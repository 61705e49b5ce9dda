// Package lint is the analysis framework behind the flexvet static-analysis
// suite (scripts/flexvet). It loads and type-checks packages of this module
// with nothing but the standard library (go/parser + go/types with the
// source importer), runs a set of domain-aware analyzers over them, and
// reports diagnostics.
//
// The analyzers encode invariants of the flex-offer model that Go's type
// system cannot express — constructed offers must be validated before they
// travel, energy values must not be compared with ==, replayable paths must
// draw time from an injected clock, and mutex-guarded state must be
// accessed under its lock. docs/LINTING.md documents every analyzer and the
// convention it enforces.
//
// A finding can be suppressed at the offending line (or the line above it)
// with an explanation:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory and the analyzer must be registered (or "all");
// a directive that breaks either rule is itself reported.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: an analyzer, a position, and a message. The
// JSON field names are the flexvet -json contract.
type Diagnostic struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// File is the slash-separated path of the offending file.
	File string `json:"file"`
	// Line is the 1-based line of the finding.
	Line int `json:"line"`
	// Col is the 1-based column of the finding.
	Col int `json:"col"`
	// Message explains the violation and what to do instead.
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in reports and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description of the convention enforced.
	Doc string
	// Paths restricts the analyzer to packages whose import path ends in
	// one of these fragments (segment-aligned, so "internal/core" matches
	// "repro/internal/core" but not "repro/internal/score"). Empty means
	// every package.
	Paths []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// applies reports whether the analyzer's path scope covers pkgPath.
func (a *Analyzer) applies(pkgPath string) bool {
	if len(a.Paths) == 0 {
		return true
	}
	for _, p := range a.Paths {
		if PathMatches(pkgPath, p) {
			return true
		}
	}
	return false
}

// PathMatches reports whether pkgPath ends in the segment-aligned fragment
// pat ("internal/core" matches "repro/internal/core" and
// "repro/x/testdata/src/internal/core", but not "repro/internal/score").
func PathMatches(pkgPath, pat string) bool {
	if !strings.HasSuffix(pkgPath, pat) {
		return false
	}
	rest := pkgPath[:len(pkgPath)-len(pat)]
	return rest == "" || strings.HasSuffix(rest, "/")
}

// Pass carries one analyzer run over one package and collects its findings.
type Pass struct {
	// Analyzer is the running analyzer.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// All holds every loaded package, so cross-package questions ("does
	// this called function return only constants?") can be answered from
	// source.
	All []*Package
	// Shared caches the flow artifacts of this Run — CFGs and module-wide
	// analyzer facts — across every pass.
	Shared *Shared

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     strings.ReplaceAll(position.Filename, "\\", "/"),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over every loaded package, honours
// //lint:ignore suppressions, and returns the surviving diagnostics sorted
// by file, line, column and analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	shared := newShared()
	for _, pkg := range pkgs {
		ignores, malformed := collectIgnores(pkg)
		out = append(out, malformed...)
		for _, a := range analyzers {
			if !a.applies(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, All: pkgs, Shared: shared}
			a.Run(pass)
			for _, d := range pass.diags {
				if !ignores.covers(d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignoreKey addresses one suppression: a file/line and the analyzer name
// (or "all").
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet map[ignoreKey]bool

// covers reports whether d is suppressed by a directive on its own line or
// the line directly above it.
func (s ignoreSet) covers(d Diagnostic) bool {
	for _, line := range []int{d.Line, d.Line - 1} {
		if s[ignoreKey{d.File, line, d.Analyzer}] || s[ignoreKey{d.File, line, "all"}] {
			return true
		}
	}
	return false
}

// collectIgnores extracts the //lint:ignore directives of a package through
// the shared directive parser. A malformed directive — an ignore missing
// its analyzer name or reason, any //flexvet: comment — and an ignore
// naming no registered analyzer (a typo, or one that was deleted) are
// reported as diagnostics of the pseudo-analyzer "flexvet" instead of
// being honoured, so neither can silently disable a check or linger.
func collectIgnores(pkg *Package) (ignoreSet, []Diagnostic) {
	ignores := make(ignoreSet)
	var malformed []Diagnostic
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d, ok, msg := ParseDirective(c.Text)
				if ok && d.Analyzer != "all" && ByName(d.Analyzer) == nil {
					ok, msg = false, fmt.Sprintf("//lint:ignore names unknown analyzer %q: fix the name or delete the directive (flexvet -list)", d.Analyzer)
				}
				if !ok && msg == "" {
					continue // an ordinary comment
				}
				pos := pkg.Fset.Position(c.Pos())
				path := strings.ReplaceAll(pos.Filename, "\\", "/")
				if ok {
					ignores[ignoreKey{path, pos.Line, d.Analyzer}] = true
					continue
				}
				malformed = append(malformed, Diagnostic{Analyzer: "flexvet", File: path, Line: pos.Line, Col: pos.Column, Message: msg})
			}
		}
	}
	return ignores, malformed
}
