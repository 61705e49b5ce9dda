package lint

import (
	"strings"
	"testing"
)

// FuzzLintDirectives drives the directive parser with arbitrary comment
// text and checks its structural invariants: it never panics, a successful
// parse fills the fields its kind mandates, a failed parse of a
// directive-prefixed comment always carries a diagnosis message, and no
// comment of the retired //flexvet: family parses.
func FuzzLintDirectives(f *testing.F) {
	seeds := []string{
		"//lint:ignore floatcmp tolerance is intentional",
		"//lint:ignore doccheck",
		"//lint:ignore",
		"//lint:ignoreall everything",
		"//lint: ignore floatcmp x",
		// Retired verbs: reported as unknown, never silently accepted.
		flexvetPrefix + "hotpath",
		flexvetPrefix + "hotpath called per sample",
		flexvetPrefix + "replay recovery applies journaled events",
		flexvetPrefix + "replay",
		flexvetPrefix + "journaled journalLocked",
		flexvetPrefix + "journaled journalLocked the gate appends first",
		flexvetPrefix + "journaled",
		flexvetPrefix + "hotpth typo",
		flexvetPrefix,
		"// ordinary comment",
		"//lint:ignore\tmutexguard\ttabs as separators",
		flexvetPrefix + "journaled égate unicode",
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
			if d.Kind != DirIgnore {
				t.Fatalf("ParseDirective(%q): unknown kind %q", text, d.Kind)
			}
			if d.Analyzer == "" || d.Reason == "" {
				t.Fatalf("ParseDirective(%q): ignore directive missing analyzer/reason: %+v", text, d)
			}
		}
		// Any comment that opts into the directive namespaces must either
		// parse or be diagnosed -- silence hides typos and stale
		// annotations. A //flexvet: comment never parses: that family is
		// retired.
		if strings.HasPrefix(text, "//lint:") || strings.HasPrefix(text, flexvetPrefix) {
			if !ok && msg == "" {
				t.Fatalf("ParseDirective(%q): directive-prefixed text neither parsed nor diagnosed", text)
			}
		}
		if ok && strings.HasPrefix(text, flexvetPrefix) {
			t.Fatalf("ParseDirective(%q): retired //flexvet: directive accepted", text)
		}
	})
}
