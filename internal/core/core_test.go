package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/timeseries"
)

var t0 = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC) // a Monday

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// flatDay builds `days` days of 15-minute intervals at the given constant
// energy per interval.
func flatDay(days int, perInterval float64) *timeseries.Series {
	vals := make([]float64, days*96)
	for i := range vals {
		vals[i] = perInterval
	}
	return timeseries.MustNew(t0, 15*time.Minute, vals)
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestParamsValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"flex pct zero", func(p *Params) { p.FlexPercentage = 0 }},
		{"flex pct one", func(p *Params) { p.FlexPercentage = 1 }},
		{"slice duration zero", func(p *Params) { p.SliceDuration = 0 }},
		{"slice duration non-dividing", func(p *Params) { p.SliceDuration = 7 * time.Minute }},
		{"no slices", func(p *Params) { p.SlicesPerOffer = 0 }},
		{"jitter too large", func(p *Params) { p.SliceJitter = 8 }},
		{"negative spread", func(p *Params) { p.EnergySpreadMin = -0.1 }},
		{"spread inverted", func(p *Params) { p.EnergySpreadMax = 0.05 }},
		{"spread one", func(p *Params) { p.EnergySpreadMin = 1; p.EnergySpreadMax = 1 }},
		{"negative time flex", func(p *Params) { p.TimeFlexibility = -time.Hour }},
		{"jitter above flex", func(p *Params) { p.TimeFlexJitter = 10 * time.Hour }},
		{"lifecycle disorder", func(p *Params) { p.AcceptanceLead = p.CreationLead + time.Hour }},
	}
	for _, tc := range tests {
		p := DefaultParams()
		tc.mutate(&p)
		if err := p.Validate(); !errors.Is(err, ErrParams) {
			t.Errorf("%s: err = %v, want ErrParams", tc.name, err)
		}
	}
}

func TestApproach(t *testing.T) {
	for _, name := range []string{"basic", "peak", "random"} {
		newExtractor, err := Approach(name)
		if err != nil {
			t.Fatalf("Approach(%q): %v", name, err)
		}
		p := DefaultParams()
		p.ConsumerID = "house-1"
		ex := newExtractor(p)
		if ex.Name() != name {
			t.Errorf("Approach(%q) builds the %q extractor", name, ex.Name())
		}
		res, err := ex.Extract(shapedDay(2))
		if err != nil || len(res.Offers) == 0 {
			t.Fatalf("%s: Extract: %d offers, error %v", name, len(res.Offers), err)
		}
		for _, o := range res.Offers {
			if o.ConsumerID != "house-1" {
				t.Fatalf("%s: offer for consumer %q, want the Params' house-1", name, o.ConsumerID)
			}
		}
	}
	for _, name := range []string{"", "Peak", "multitariff", "frequency", "schedule", "nope"} {
		if _, err := Approach(name); err == nil {
			t.Errorf("Approach(%q) succeeded, want an error", name)
		}
	}
}

func TestCheckInput(t *testing.T) {
	p := DefaultParams()
	if err := checkInput(flatDay(1, 0.3), p); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
	if err := checkInput(nil, p); !errors.Is(err, ErrInput) {
		t.Errorf("nil input: %v", err)
	}
	empty := timeseries.MustNew(t0, 15*time.Minute, nil)
	if err := checkInput(empty, p); !errors.Is(err, ErrInput) {
		t.Errorf("empty input: %v", err)
	}
	hourly := timeseries.MustNew(t0, time.Hour, []float64{1})
	if err := checkInput(hourly, p); !errors.Is(err, ErrInput) {
		t.Errorf("wrong resolution: %v", err)
	}
	withNaN := timeseries.MustNew(t0, 15*time.Minute, []float64{1, math.NaN()})
	if err := checkInput(withNaN, p); !errors.Is(err, ErrInput) {
		t.Errorf("missing values: %v", err)
	}
	negative := timeseries.MustNew(t0, 15*time.Minute, []float64{1, -1})
	if err := checkInput(negative, p); !errors.Is(err, ErrInput) {
		t.Errorf("negative values: %v", err)
	}
}

func TestOfferBuilderEnergyInvariant(t *testing.T) {
	p := DefaultParams()
	b := newOfferBuilder("test", p)
	energies := []float64{1, 2, 3}
	f, err := b.build(t0, energies, "")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Average energy equals requested energies exactly (symmetric bands).
	if !almostEqual(f.TotalAvgEnergy(), 6, 1e-9) {
		t.Errorf("TotalAvgEnergy = %v, want 6", f.TotalAvgEnergy())
	}
	for i, s := range f.Profile {
		if !almostEqual(s.AvgEnergy(), energies[i], 1e-9) {
			t.Errorf("slice %d avg = %v, want %v", i, s.AvgEnergy(), energies[i])
		}
		if s.MinEnergy > s.MaxEnergy {
			t.Errorf("slice %d inverted band", i)
		}
		spread := (s.MaxEnergy - s.MinEnergy) / (2 * energies[i])
		if spread < p.EnergySpreadMin-1e-9 || spread > p.EnergySpreadMax+1e-9 {
			t.Errorf("slice %d spread %v outside [%v, %v]", i, spread, p.EnergySpreadMin, p.EnergySpreadMax)
		}
	}
	if err := f.Validate(); err != nil {
		t.Errorf("built offer invalid: %v", err)
	}
	// Time flexibility within jitter bounds.
	tf := f.TimeFlexibility()
	if tf < p.TimeFlexibility-p.TimeFlexJitter || tf > p.TimeFlexibility+p.TimeFlexJitter {
		t.Errorf("time flexibility %v outside jitter window", tf)
	}
	// Lifecycle stamps ordered.
	if !f.CreationTime.Before(f.AcceptanceTime) || !f.AcceptanceTime.Before(f.AssignmentTime) {
		t.Error("lifecycle stamps out of order")
	}
	// Sequential IDs.
	f2, _ := b.build(t0, energies, "")
	if f.ID == f2.ID {
		t.Error("IDs not unique")
	}
}

func TestOfferBuilderEmptyEnergies(t *testing.T) {
	b := newOfferBuilder("test", DefaultParams())
	if _, err := b.build(t0, nil, ""); !errors.Is(err, ErrParams) {
		t.Errorf("empty energies: %v", err)
	}
}

func TestSliceCountJitter(t *testing.T) {
	p := DefaultParams()
	p.SlicesPerOffer = 8
	p.SliceJitter = 2
	b := newOfferBuilder("test", p)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		n := b.sliceCount()
		if n < 6 || n > 10 {
			t.Fatalf("slice count %d outside [6, 10]", n)
		}
		seen[n] = true
	}
	if len(seen) < 3 {
		t.Errorf("slice count not varying: %v", seen)
	}
}

func TestSubtractProportional(t *testing.T) {
	s := timeseries.MustNew(t0, 15*time.Minute, []float64{1, 2, 3, 4})
	removed := subtractProportional(s, 0, 4, 5)
	if !almostEqual(removed, 5, 1e-9) {
		t.Fatalf("removed = %v", removed)
	}
	if !almostEqual(s.Total(), 5, 1e-9) {
		t.Errorf("remaining = %v, want 5", s.Total())
	}
	// Proportionality: ratios preserved.
	if !almostEqual(s.Value(1)/s.Value(0), 2, 1e-9) {
		t.Errorf("proportions broken: %v", s.Values())
	}
	// Requesting more than available removes only what is there.
	s2 := timeseries.MustNew(t0, 15*time.Minute, []float64{1, 1})
	removed = subtractProportional(s2, 0, 2, 10)
	if !almostEqual(removed, 2, 1e-9) || !almostEqual(s2.Total(), 0, 1e-9) {
		t.Errorf("over-subtract: removed %v, remaining %v", removed, s2.Total())
	}
	// Zero window or amount: no-op.
	s3 := timeseries.MustNew(t0, 15*time.Minute, []float64{0, 0})
	if got := subtractProportional(s3, 0, 2, 1); got != 0 {
		t.Errorf("zero window removed %v", got)
	}
	if got := subtractProportional(s, 0, 4, 0); got != 0 {
		t.Errorf("zero amount removed %v", got)
	}
}

func TestWindowEnergies(t *testing.T) {
	s := timeseries.MustNew(t0, 15*time.Minute, []float64{1, 2, 3, 4})
	got := windowEnergies(s, 1, 3)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("windowEnergies = %v", got)
	}
}
