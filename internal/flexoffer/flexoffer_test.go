package flexoffer

import (
	"errors"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2012, 6, 1, 22, 0, 0, 0, time.UTC)

// evOffer builds the paper's Fig. 1 example: EV charging, earliest start
// 10 PM, latest start 5 AM next day, 2-hour profile of 15-minute slices,
// 50 kWh total.
func evOffer() *FlexOffer {
	const slices = 8 // 2 h of 15-min slices
	const total = 50.0
	per := total / slices
	return &FlexOffer{
		ID:             "ev-1",
		ConsumerID:     "household-42",
		Appliance:      "electric vehicle",
		CreationTime:   t0.Add(-4 * time.Hour),
		AcceptanceTime: t0.Add(-2 * time.Hour),
		AssignmentTime: t0.Add(-1 * time.Hour),
		EarliestStart:  t0,                    // 22:00
		LatestStart:    t0.Add(7 * time.Hour), // 05:00
		Profile:        UniformProfile(slices, 15*time.Minute, per*0.9, per*1.1),
	}
}

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFig1DerivedQuantities(t *testing.T) {
	f := evOffer()
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := f.Duration(); got != 2*time.Hour {
		t.Errorf("Duration = %v, want 2h", got)
	}
	if got := f.TimeFlexibility(); got != 7*time.Hour {
		t.Errorf("TimeFlexibility = %v, want 7h", got)
	}
	// Latest end: 05:00 + 2h = 07:00, the paper's "7am latest end time".
	if want := t0.Add(9 * time.Hour); !f.LatestEnd().Equal(want) {
		t.Errorf("LatestEnd = %v, want %v", f.LatestEnd(), want)
	}
	if got := f.TotalAvgEnergy(); !almostEqual(got, 50, 1e-9) {
		t.Errorf("TotalAvgEnergy = %v, want 50", got)
	}
	if got := f.TotalMinEnergy(); !almostEqual(got, 45, 1e-9) {
		t.Errorf("TotalMinEnergy = %v, want 45", got)
	}
	if got := f.TotalMaxEnergy(); !almostEqual(got, 55, 1e-9) {
		t.Errorf("TotalMaxEnergy = %v, want 55", got)
	}
	if got := f.EnergyFlexibility(); !almostEqual(got, 10, 1e-9) {
		t.Errorf("EnergyFlexibility = %v, want 10", got)
	}
}

func TestSliceHelpers(t *testing.T) {
	s := Slice{Duration: 15 * time.Minute, MinEnergy: 2, MaxEnergy: 4}
	if s.AvgEnergy() != 3 {
		t.Errorf("AvgEnergy = %v, want 3", s.AvgEnergy())
	}
	if s.EnergyFlexibility() != 2 {
		t.Errorf("EnergyFlexibility = %v, want 2", s.EnergyFlexibility())
	}
}

func TestValidateRejections(t *testing.T) {
	base := evOffer()
	tests := []struct {
		name   string
		mutate func(*FlexOffer)
		want   error
	}{
		{"empty profile", func(f *FlexOffer) { f.Profile = nil }, ErrEmptyProfile},
		{"zero slice duration", func(f *FlexOffer) { f.Profile[3].Duration = 0 }, ErrSliceDuration},
		{"min above max", func(f *FlexOffer) { f.Profile[0].MinEnergy = f.Profile[0].MaxEnergy + 1 }, ErrSliceBounds},
		{"inverted window", func(f *FlexOffer) { f.LatestStart = f.EarliestStart.Add(-time.Hour) }, ErrTimeWindow},
		{"acceptance before creation", func(f *FlexOffer) { f.AcceptanceTime = f.CreationTime.Add(-time.Hour) }, ErrLifecycleOrder},
		{"assignment before acceptance", func(f *FlexOffer) { f.AssignmentTime = f.AcceptanceTime.Add(-time.Minute) }, ErrLifecycleOrder},
		{"earliest start before assignment", func(f *FlexOffer) { f.AssignmentTime = f.EarliestStart.Add(time.Hour) }, ErrLifecycleOrder},
	}
	for _, tc := range tests {
		f := base.Clone()
		tc.mutate(f)
		if err := f.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestValidateSkipsZeroLifecycle(t *testing.T) {
	f := evOffer()
	f.CreationTime = time.Time{}
	f.AcceptanceTime = time.Time{}
	f.AssignmentTime = time.Time{}
	if err := f.Validate(); err != nil {
		t.Errorf("Validate with unset lifecycle = %v", err)
	}
}

func TestValidateAllowsProductionOffers(t *testing.T) {
	f := evOffer()
	for i := range f.Profile {
		f.Profile[i].MinEnergy = -2
		f.Profile[i].MaxEnergy = -1
	}
	if err := f.Validate(); err != nil {
		t.Errorf("production offer rejected: %v", err)
	}
}

func TestValidateAllowsZeroFlexibilityWindow(t *testing.T) {
	f := evOffer()
	f.LatestStart = f.EarliestStart
	if err := f.Validate(); err != nil {
		t.Errorf("zero time-flexibility offer rejected: %v", err)
	}
	if f.TimeFlexibility() != 0 {
		t.Errorf("TimeFlexibility = %v, want 0", f.TimeFlexibility())
	}
}

func TestCloneIndependence(t *testing.T) {
	f := evOffer()
	c := f.Clone()
	c.Profile[0].MinEnergy = 999
	c.ID = "other"
	if f.Profile[0].MinEnergy == 999 || f.ID == "other" {
		t.Error("Clone shares state with original")
	}
}

func TestUniformProfile(t *testing.T) {
	p := UniformProfile(4, 15*time.Minute, 1, 2)
	if len(p) != 4 {
		t.Fatalf("len = %d", len(p))
	}
	for _, s := range p {
		if s.Duration != 15*time.Minute || s.MinEnergy != 1 || s.MaxEnergy != 2 {
			t.Errorf("slice = %+v", s)
		}
	}
}

func TestStringer(t *testing.T) {
	if evOffer().String() == "" {
		t.Error("String() empty")
	}
}
