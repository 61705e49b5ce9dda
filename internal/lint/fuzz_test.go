package lint

import (
	"strings"
	"testing"
)

// FuzzLintDirectives drives the directive parser with arbitrary comment
// text and checks its structural invariants: it never panics, a successful
// parse fills the fields its kind mandates, and a failed parse of a
// directive-prefixed comment always carries a diagnosis message.
func FuzzLintDirectives(f *testing.F) {
	seeds := []string{
		"//lint:ignore floatcmp tolerance is intentional",
		"//lint:ignore doccheck",
		"//lint:ignore",
		"//lint:ignoreall everything",
		"//lint: ignore floatcmp x",
		"//flexvet:hotpath",
		"//flexvet:hotpath called per sample",
		// Retired verbs: reported as unknown, never silently accepted.
		"//flexvet:replay recovery applies journaled events",
		"//flexvet:replay",
		"//flexvet:journaled journalLocked",
		"//flexvet:journaled journalLocked the gate appends first",
		"//flexvet:journaled",
		"//flexvet:hotpth typo",
		"//flexvet:",
		"// ordinary comment",
		"//lint:ignore\tmutexguard\ttabs as separators",
		"//flexvet:journaled égate unicode",
		"//lint:ignore a b\x00c",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, ok, msg := ParseDirective(text)
		if ok && msg != "" {
			t.Fatalf("ParseDirective(%q): ok with non-empty message %q", text, msg)
		}
		if ok {
			switch d.Kind {
			case DirIgnore:
				if d.Analyzer == "" || d.Reason == "" {
					t.Fatalf("ParseDirective(%q): ignore directive missing analyzer/reason: %+v", text, d)
				}
			case DirHotpath:
				// No mandatory arguments.
			default:
				t.Fatalf("ParseDirective(%q): unknown kind %q", text, d.Kind)
			}
		}
		// Any comment that opts into the directive namespaces must either
		// parse or be diagnosed -- silence hides typos like //flexvet:hotpth.
		if strings.HasPrefix(text, "//lint:") || strings.HasPrefix(text, "//flexvet:") {
			if !ok && msg == "" {
				t.Fatalf("ParseDirective(%q): directive-prefixed text neither parsed nor diagnosed", text)
			}
		}
	})
}
