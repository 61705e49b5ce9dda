package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// Directive kinds understood by the flexvet comment parser. The //lint:ignore
// family suppresses findings; the //flexvet: family marks functions for
// alloccheck (docs/LINTING.md documents both).
const (
	// DirIgnore suppresses an analyzer's findings on the directive's line
	// and the line below it. The analyzer name and a reason are mandatory.
	DirIgnore = "ignore"
	// DirHotpath subjects a function to alloccheck's per-element allocation
	// rules (the zero-allocation submit/list/extract paths).
	DirHotpath = "hotpath"
)

// lintPrefix and flexvetPrefix open the two directive families; ignorePrefix
// is the only //lint: form. Anything else under either prefix is malformed
// and reported, so a typo cannot silently disable a check.
const (
	lintPrefix    = "//lint:"
	ignorePrefix  = "//lint:ignore"
	flexvetPrefix = "//flexvet:"
)

// Directive is one parsed flexvet comment directive.
type Directive struct {
	// Kind is one of the Dir* constants.
	Kind string
	// Analyzer is the suppressed analyzer's name, or "all" (DirIgnore only).
	Analyzer string
	// Reason is the human explanation (mandatory for DirIgnore, optional
	// for DirHotpath).
	Reason string
}

// ParseDirective classifies one comment line (the raw text, "//" included).
// It returns ok=true and the parsed directive for a well-formed one;
// ok=false with a non-empty msg for a malformed one, which the framework
// reports under the pseudo-analyzer "flexvet"; and ok=false with msg==""
// for an ordinary comment. The parser never panics, whatever the input.
func ParseDirective(text string) (d Directive, ok bool, msg string) {
	switch {
	case strings.HasPrefix(text, ignorePrefix):
		rest := text[len(ignorePrefix):]
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			// "//lint:ignored", "//lint:ignoreX" — a directive-shaped typo.
			return Directive{}, false, `malformed //lint: directive: want "//lint:ignore <analyzer> <reason>"`
		}
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return Directive{}, false, `malformed //lint:ignore directive: want "//lint:ignore <analyzer> <reason>"`
		}
		return Directive{Kind: DirIgnore, Analyzer: fields[0], Reason: strings.Join(fields[1:], " ")}, true, ""
	case strings.HasPrefix(text, lintPrefix):
		return Directive{}, false, `malformed //lint: directive: want "//lint:ignore <analyzer> <reason>"`
	case strings.HasPrefix(text, flexvetPrefix):
		rest := text[len(flexvetPrefix):]
		name := rest
		var args []string
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			name, args = rest[:i], strings.Fields(rest[i:])
		}
		if name != DirHotpath {
			return Directive{}, false, fmt.Sprintf("unknown //flexvet: directive %q (known: hotpath)", name)
		}
		// Trailing words are free-form commentary.
		return Directive{Kind: DirHotpath, Reason: strings.Join(args, " ")}, true, ""
	}
	return Directive{}, false, ""
}

// funcDirective returns the first well-formed directive of the given kind
// in fd's doc comment. Malformed directives are not matched here — the
// framework already reports them — so a typo never grants an exemption.
func funcDirective(fd *ast.FuncDecl, kind string) (Directive, bool) {
	if fd == nil || fd.Doc == nil {
		return Directive{}, false
	}
	for _, c := range fd.Doc.List {
		if d, ok, _ := ParseDirective(c.Text); ok && d.Kind == kind {
			return d, true
		}
	}
	return Directive{}, false
}
