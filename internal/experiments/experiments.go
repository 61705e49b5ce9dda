// Package experiments regenerates every table and figure of the paper plus
// the extension experiments listed in DESIGN.md (E1–E16). Each experiment
// is a self-contained function writing a textual report; cmd/experiments
// runs them from the command line and the root benchmark suite wraps them
// in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/appliance"
	"repro/internal/household"
	"repro/internal/timeseries"
)

// Experiment is one reproducible paper artefact.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md, e.g. "E3".
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the paper artefact being reproduced.
	Paper string
	// Run executes the experiment, writing its report to w.
	Run func(w io.Writer) error
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "EV flex-offer example", Paper: "Figure 1", Run: RunE1},
		{ID: "E2", Title: "Basic extraction output", Paper: "Figure 4", Run: RunE2},
		{ID: "E3", Title: "Peak-based extraction walkthrough", Paper: "Figure 5", Run: RunE3},
		{ID: "E4", Title: "Appliance information registry", Paper: "Table 1", Run: RunE4},
		{ID: "E5", Title: "Flexible share of demand", Paper: "§1 (0.1–6.5% band [7])", Run: RunE5},
		{ID: "E6", Title: "Multi-tariff extraction sweep", Paper: "§3.3 (no data in paper)", Run: RunE6},
		{ID: "E7", Title: "Frequency-based extraction accuracy", Paper: "§4.1 (future work in paper)", Run: RunE7},
		{ID: "E8", Title: "Disaggregation vs granularity", Paper: "§6 (15-min insufficient)", Run: RunE8},
		{ID: "E9", Title: "Schedule-based extraction accuracy", Paper: "§4.2 (future work in paper)", Run: RunE9},
		{ID: "E10", Title: "Realism vs random baseline", Paper: "§1 + §6", Run: RunE10},
		{ID: "E11", Title: "Aggregated offers vs population load", Paper: "§6", Run: RunE11},
		{ID: "E12", Title: "End-to-end MIRABEL pipeline", Paper: "§1 (global evaluation)", Run: RunE12},
		{ID: "E13", Title: "Forecasting substrate + forecast-driven scheduling", Paper: "extension ([6])", Run: RunE13},
		{ID: "E14", Title: "Peak-threshold ablation", Paper: "extension (DESIGN.md §5)", Run: RunE14},
		{ID: "E15", Title: "Production flex-offers", Paper: "extension (§6 future work)", Run: RunE15},
		{ID: "E16", Title: "Base-load estimator ablation", Paper: "extension (disaggregation)", Run: RunE16},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		if err := header(w, e); err != nil {
			return err
		}
		if err := e.Run(w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func header(w io.Writer, e Experiment) error {
	_, err := fmt.Fprintf(w, "=== %s — %s (%s) ===\n", e.ID, e.Title, e.Paper)
	return err
}

// --- shared fixtures --------------------------------------------------------

// day0 anchors all experiments on the paper-era date used across the repo.
var day0 = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// defaultRegistry is shared by all experiments.
var defaultRegistry = appliance.Default()

// fineHousehold returns the standard appliance-level test household at
// 1-minute resolution.
func fineHousehold(days int, seed int64) (*household.Result, error) {
	cfg := household.Config{
		ID: "exp-household", Residents: 3,
		Appliances: []string{
			"washing machine Y", "dishwasher Z", "vacuum cleaning robot X", "refrigerator",
		},
		BaseLoadKW: 0.2, MorningPeak: 0.5, EveningPeak: 0.9, NoiseStd: 0.05,
		Seed: seed,
	}
	return household.Simulate(defaultRegistry, cfg, day0, days, time.Minute)
}

// resampleOrPanic converts a series to a resolution known to divide it.
func resampleOrPanic(s *timeseries.Series, res time.Duration) *timeseries.Series {
	out, err := s.ResampleTo(res)
	if err != nil {
		panic(err)
	}
	return out
}
