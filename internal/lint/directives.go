package lint

import (
	"fmt"
	"strings"
)

// Directive kinds understood by the flexvet comment parser. The only one
// is //lint:ignore, which suppresses findings (docs/LINTING.md).
const (
	// DirIgnore suppresses an analyzer's findings on the directive's line
	// and the line below it. The analyzer name and a reason are mandatory.
	DirIgnore = "ignore"
)

// lintPrefix opens the directive family and ignorePrefix is its only form.
// flexvetPrefix opens a retired family: its verbs (hotpath, journaled,
// replay) gave way to tests and types, so every //flexvet: comment is
// reported. Anything else under either prefix is malformed and reported,
// so a typo or a stale annotation cannot linger.
const (
	lintPrefix    = "//lint:"
	ignorePrefix  = "//lint:ignore"
	flexvetPrefix = "//flexvet:"
)

// Directive is one parsed flexvet comment directive.
type Directive struct {
	// Kind is one of the Dir* constants.
	Kind string
	// Analyzer is the suppressed analyzer's name, or "all".
	Analyzer string
	// Reason is the mandatory human explanation.
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
		name := text[len(flexvetPrefix):]
		if i := strings.IndexAny(name, " \t"); i >= 0 {
			name = name[:i]
		}
		return Directive{}, false, fmt.Sprintf("unknown //flexvet: directive %q: the //flexvet: family is retired, delete the comment", name)
	}
	return Directive{}, false, ""
}
