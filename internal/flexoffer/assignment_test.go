package flexoffer

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/timeseries"
)

func TestAssignValid(t *testing.T) {
	f := evOffer()
	energies := make([]float64, len(f.Profile))
	for i, s := range f.Profile {
		energies[i] = s.MinEnergy
	}
	a, err := f.Assign(f.EarliestStart.Add(time.Hour), energies)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if !almostEqual(a.TotalEnergy(), f.TotalMinEnergy(), 1e-9) {
		t.Errorf("TotalEnergy = %v", a.TotalEnergy())
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAssignRejections(t *testing.T) {
	f := evOffer()
	ok := make([]float64, len(f.Profile))
	for i, s := range f.Profile {
		ok[i] = s.AvgEnergy()
	}
	if _, err := f.Assign(f.EarliestStart.Add(-time.Minute), ok); !errors.Is(err, ErrInfeasible) {
		t.Errorf("early start err = %v", err)
	}
	if _, err := f.Assign(f.LatestStart.Add(time.Minute), ok); !errors.Is(err, ErrInfeasible) {
		t.Errorf("late start err = %v", err)
	}
	if _, err := f.Assign(f.EarliestStart, ok[:3]); !errors.Is(err, ErrInfeasible) {
		t.Errorf("wrong energy count err = %v", err)
	}
	bad := append([]float64(nil), ok...)
	bad[0] = f.Profile[0].MaxEnergy + 1
	if _, err := f.Assign(f.EarliestStart, bad); !errors.Is(err, ErrInfeasible) {
		t.Errorf("energy above max err = %v", err)
	}
	bad[0] = f.Profile[0].MinEnergy - 1
	if _, err := f.Assign(f.EarliestStart, bad); !errors.Is(err, ErrInfeasible) {
		t.Errorf("energy below min err = %v", err)
	}
}

func TestAssignBoundaryStarts(t *testing.T) {
	f := evOffer()
	if _, err := f.AssignDefault(f.EarliestStart); err != nil {
		t.Errorf("assign at earliest: %v", err)
	}
	if _, err := f.AssignDefault(f.LatestStart); err != nil {
		t.Errorf("assign at latest: %v", err)
	}
}

func TestAssignCopiesEnergies(t *testing.T) {
	f := evOffer()
	energies := make([]float64, len(f.Profile))
	for i, s := range f.Profile {
		energies[i] = s.AvgEnergy()
	}
	a, err := f.Assign(f.EarliestStart, energies)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	energies[0] = -999
	if a.Energies[0] == -999 {
		t.Error("Assign did not copy energies")
	}
}

func TestAssignmentValidateNilOffer(t *testing.T) {
	a := &Assignment{}
	if err := a.Validate(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("nil-offer Validate = %v", err)
	}
}

func TestToSeries(t *testing.T) {
	f := evOffer()
	a, err := f.AssignDefault(f.EarliestStart)
	if err != nil {
		t.Fatalf("AssignDefault: %v", err)
	}
	s, err := a.ToSeries(15 * time.Minute)
	if err != nil {
		t.Fatalf("ToSeries: %v", err)
	}
	if s.Len() != 8 || !s.Start().Equal(f.EarliestStart) {
		t.Errorf("series shape: %v", s)
	}
	if !almostEqual(s.Total(), 50, 1e-9) {
		t.Errorf("series total = %v, want 50", s.Total())
	}
	// Finer resolution splits slice energy evenly.
	fine, err := a.ToSeries(5 * time.Minute)
	if err != nil {
		t.Fatalf("ToSeries fine: %v", err)
	}
	if fine.Len() != 24 || !almostEqual(fine.Total(), 50, 1e-9) {
		t.Errorf("fine series: len=%d total=%v", fine.Len(), fine.Total())
	}
	if _, err := a.ToSeries(0); err == nil {
		t.Error("ToSeries(0) succeeded")
	}
	if _, err := a.ToSeries(7 * time.Minute); err == nil {
		t.Error("non-divisor resolution succeeded")
	}
}

func TestAddToSeries(t *testing.T) {
	f := evOffer()
	a, err := f.AssignDefault(f.EarliestStart)
	if err != nil {
		t.Fatalf("AssignDefault: %v", err)
	}
	dst, _ := timeseries.Zeros(f.EarliestStart.Add(-time.Hour), 15*time.Minute, 16)
	added, err := a.AddToSeries(dst)
	if err != nil {
		t.Fatalf("AddToSeries: %v", err)
	}
	// Destination covers -1h..+3h around start; the 2h profile fits fully.
	if !almostEqual(added, 50, 1e-9) || !almostEqual(dst.Total(), 50, 1e-9) {
		t.Errorf("added = %v, dst total = %v", added, dst.Total())
	}
	// Destination too short: only part is added.
	short, _ := timeseries.Zeros(f.EarliestStart, 15*time.Minute, 4)
	added, err = a.AddToSeries(short)
	if err != nil {
		t.Fatalf("AddToSeries short: %v", err)
	}
	if !almostEqual(added, 25, 1e-9) {
		t.Errorf("partial added = %v, want 25", added)
	}
}

// Property: any start within the window and any energies within bounds form
// a valid assignment whose series conserves the assigned energy.
func TestAssignmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		offer := evOffer()
		start := offer.EarliestStart.Add(time.Duration(rng.Int63n(int64(offer.TimeFlexibility()) + 1)))
		energies := make([]float64, len(offer.Profile))
		for i, s := range offer.Profile {
			energies[i] = s.MinEnergy + rng.Float64()*(s.MaxEnergy-s.MinEnergy)
		}
		a, err := offer.Assign(start, energies)
		if err != nil {
			return false
		}
		series, err := a.ToSeries(15 * time.Minute)
		if err != nil {
			return false
		}
		return almostEqual(series.Total(), a.TotalEnergy(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
