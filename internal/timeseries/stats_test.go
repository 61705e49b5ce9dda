package timeseries

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestMeanStdMinMax(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
}

func TestCountMissing(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, math.NaN(), 2, math.NaN()})
	if got := s.CountMissing(); got != 2 {
		t.Errorf("CountMissing = %d, want 2", got)
	}
}

func TestStatsSkipNaN(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{math.NaN(), 1, 3, math.NaN()})
	if got := s.Mean(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Mean with NaN = %v, want 2", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min with NaN = %v, want 1", got)
	}
	if got := s.Max(); got != 3 {
		t.Errorf("Max with NaN = %v, want 3", got)
	}
}

func TestStatsAllMissing(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{math.NaN(), math.NaN()})
	for name, got := range map[string]float64{
		"Mean": s.Mean(), "Min": s.Min(), "Max": s.Max(),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s of all-missing = %v, want NaN", name, got)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{4, 1, 3, 2})
	tests := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, tc := range tests {
		if got := s.Quantile(tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := s.Quantile(-0.1); !math.IsNaN(got) {
		t.Errorf("Quantile(-0.1) = %v, want NaN", got)
	}
	one := MustNew(t0, time.Hour, []float64{7})
	if got := one.Quantile(0.5); got != 7 {
		t.Errorf("Quantile of singleton = %v, want 7", got)
	}
}

func TestSparseness(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{0, 0.001, 5, 0, math.NaN()})
	if got := s.Sparseness(0.01); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("Sparseness = %v, want 0.75", got)
	}
	empty := MustNew(t0, time.Hour, nil)
	if got := empty.Sparseness(0.01); got != 0 {
		t.Errorf("Sparseness of empty = %v, want 0", got)
	}
}

func TestAutocorrelation(t *testing.T) {
	// A perfectly periodic series has ACF ~1 at its period.
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = math.Sin(2 * math.Pi * float64(i) / 12)
	}
	s := MustNew(t0, time.Hour, vals)
	if got := s.Autocorrelation(0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("ACF(0) = %v, want 1", got)
	}
	if got := s.Autocorrelation(12); got < 0.6 {
		t.Errorf("ACF(period) = %v, want high", got)
	}
	if got := s.Autocorrelation(6); got > -0.6 {
		t.Errorf("ACF(half period) = %v, want strongly negative", got)
	}
	if got := s.Autocorrelation(-1); !math.IsNaN(got) {
		t.Errorf("ACF(-1) = %v, want NaN", got)
	}
	if got := s.Autocorrelation(48); !math.IsNaN(got) {
		t.Errorf("ACF(n) = %v, want NaN", got)
	}
	flat := MustNew(t0, time.Hour, []float64{3, 3, 3, 3})
	if got := flat.Autocorrelation(1); !math.IsNaN(got) {
		t.Errorf("ACF of constant = %v, want NaN", got)
	}
}

func TestPeakToAverage(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, 1, 1, 5})
	if got := s.PeakToAverage(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("PeakToAverage = %v, want 2.5", got)
	}
	zero := MustNew(t0, time.Hour, []float64{0, 0})
	if got := zero.PeakToAverage(); !math.IsNaN(got) {
		t.Errorf("PeakToAverage of zeros = %v, want NaN", got)
	}
}

func TestBlockQuantileBaseline(t *testing.T) {
	// Flat base 1.0 with a spike in the second block.
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = 1
	}
	for i := 12; i < 16; i++ {
		vals[i] = 10
	}
	s := MustNew(t0, time.Minute, vals)
	base, err := s.BlockQuantileBaseline(10, 0.25)
	if err != nil {
		t.Fatalf("BlockQuantileBaseline: %v", err)
	}
	if base.Len() != s.Len() {
		t.Fatal("length mismatch")
	}
	// The spike must not lift the baseline: every value stays near 1.
	for i := 0; i < base.Len(); i++ {
		if base.Value(i) < 0.99 || base.Value(i) > 1.01 {
			t.Fatalf("baseline[%d] = %v, want ~1", i, base.Value(i))
		}
	}
}

func TestBlockQuantileBaselineInterpolates(t *testing.T) {
	// Two blocks with different levels: values between centres interpolate.
	vals := append(make([]float64, 0, 20), make([]float64, 20)...)
	for i := 0; i < 10; i++ {
		vals[i] = 1
	}
	for i := 10; i < 20; i++ {
		vals[i] = 3
	}
	s := MustNew(t0, time.Minute, vals)
	base, err := s.BlockQuantileBaseline(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Block centres at 5 (value 1) and 15 (value 3); index 10 is halfway.
	if !almostEqual(base.Value(10), 2, 1e-9) {
		t.Errorf("midpoint = %v, want 2", base.Value(10))
	}
	// Edges clamp to the nearest anchor.
	if !almostEqual(base.Value(0), 1, 1e-9) || !almostEqual(base.Value(19), 3, 1e-9) {
		t.Errorf("edges = %v, %v", base.Value(0), base.Value(19))
	}
}

func TestBlockQuantileBaselineErrors(t *testing.T) {
	s := MustNew(t0, time.Minute, []float64{1, 2, 3})
	if _, err := s.BlockQuantileBaseline(0, 0.5); !errors.Is(err, ErrRange) {
		t.Errorf("window 0: %v", err)
	}
	if _, err := s.BlockQuantileBaseline(10, 0.5); !errors.Is(err, ErrRange) {
		t.Errorf("window > n: %v", err)
	}
	if _, err := s.BlockQuantileBaseline(2, -0.1); !errors.Is(err, ErrRange) {
		t.Errorf("bad quantile: %v", err)
	}
}

func TestBlockQuantileBaselineAllMissing(t *testing.T) {
	s := MustNew(t0, time.Minute, []float64{math.NaN(), math.NaN()})
	base, err := s.BlockQuantileBaseline(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(base.Value(0)) {
		t.Errorf("all-missing baseline = %v", base.Value(0))
	}
}
