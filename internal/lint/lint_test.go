package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads the given fixture directories (relative to this
// package's testdata/src) through a fresh Loader, exactly as flexvet would.
func loadFixture(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = filepath.Join("testdata", "src", d)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatalf("Load(%v): %v", dirs, err)
	}
	return pkgs
}

// wantRe matches the golden markers embedded in fixture comments:
// "want:<analyzer>" expects a diagnostic of that analyzer on the same line.
// (The marker doubles as the malformed-directive fixture: a directive of the
// form "//lint:ignore want:flexvet" has no reason, and one of the form
// "//lint:ignore floatcomp want:flexvet ..." names no registered analyzer,
// so the framework reports each at its line under the pseudo-analyzer
// "flexvet".)
var wantRe = regexp.MustCompile(`want:([a-z]+)`)

// wantDiags scans the fixture files of dirs for golden markers and returns
// the expected diagnostics as sorted "file:line analyzer" strings.
func wantDiags(t *testing.T, dirs ...string) []string {
	t.Helper()
	var want []string
	for _, d := range dirs {
		dir := filepath.Join("testdata", "src", d)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", dir, err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile(%s): %v", path, err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					want = append(want, fmt.Sprintf("%s:%d %s", filepath.ToSlash(path), i+1, m[1]))
				}
			}
		}
	}
	sort.Strings(want)
	return want
}

// gotDiags renders diagnostics in the same "file:line analyzer" form.
func gotDiags(diags []Diagnostic) []string {
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Analyzer)
	}
	sort.Strings(got)
	return got
}

// checkFixture runs one analyzer over the fixture dirs and compares the
// diagnostics against the golden markers, plus any extra hard-coded
// expectations (for violations that cannot carry a marker comment).
func checkFixture(t *testing.T, a *Analyzer, dirs []string, extra ...string) {
	t.Helper()
	pkgs := loadFixture(t, dirs...)
	want := append(wantDiags(t, dirs...), extra...)
	sort.Strings(want)
	got := gotDiags(Run(pkgs, []*Analyzer{a}))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s diagnostics mismatch\n got:\n  %s\nwant:\n  %s",
			a.Name, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestValidateCheck(t *testing.T) {
	checkFixture(t, ValidateCheck, []string{"validatecheck"})
}

func TestValidateCheckSkipsDefiningPackages(t *testing.T) {
	// The stub packages sit at internal/flexoffer and internal/core path
	// suffixes: validatecheck must treat them as the defining packages and
	// stay silent about their internal literals.
	pkgs := loadFixture(t, "internal/flexoffer", "internal/core")
	if got := Run(pkgs, []*Analyzer{ValidateCheck}); len(got) != 0 {
		t.Errorf("expected no diagnostics in defining packages, got %v", got)
	}
}

func TestFloatCmp(t *testing.T) {
	checkFixture(t, FloatCmp, []string{"internal/eval"})
}

func TestFloatCmpOutOfScope(t *testing.T) {
	// The mutexguard fixture is outside floatcmp's numeric-package scope;
	// the analyzer must not run there at all.
	pkgs := loadFixture(t, "mutexguard")
	for _, d := range Run(pkgs, []*Analyzer{FloatCmp}) {
		if d.Analyzer == FloatCmp.Name {
			t.Errorf("floatcmp ran outside its path scope: %v", d)
		}
	}
}

func TestClockCheck(t *testing.T) {
	checkFixture(t, ClockCheck, []string{"internal/pipeline"})
}

func TestMutexGuard(t *testing.T) {
	checkFixture(t, MutexGuard, []string{"mutexguard"})
}

func TestDocCheck(t *testing.T) {
	// bare.go's violations are hard-coded: a marker comment on a var/const
	// spec would itself count as documentation.
	checkFixture(t, DocCheck, []string{"internal/market"},
		"testdata/src/internal/market/bare.go:3 doccheck",
		"testdata/src/internal/market/bare.go:5 doccheck",
	)
}

func TestErrFlow(t *testing.T) {
	checkFixture(t, ErrFlow, []string{
		"errflow/internal/market",
		"errflow/internal/sched",
		"errflow/internal/wal",
	})
}

func TestLockOrder(t *testing.T) {
	checkFixture(t, LockOrder, []string{"lockorder"})
}

func TestPathMatches(t *testing.T) {
	cases := []struct {
		pkg, pat string
		want     bool
	}{
		{"repro/internal/core", "internal/core", true},
		{"internal/core", "internal/core", true},
		{"repro/internal/score", "internal/core", false},
		{"repro/internal/lint/testdata/src/internal/core", "internal/core", true},
		{"repro/internal/corex", "internal/core", false},
		{"repro/cmd/mirabeld", "cmd/mirabeld", true},
	}
	for _, c := range cases {
		if got := PathMatches(c.pkg, c.pat); got != c.want {
			t.Errorf("PathMatches(%q, %q) = %v, want %v", c.pkg, c.pat, got, c.want)
		}
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("expected 7 analyzers, got %d", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("flexvet") != nil {
		t.Error("the pseudo-analyzer name must not be registered")
	}
	if ByName("nope") != nil {
		t.Error("ByName of an unknown name must be nil")
	}
}
