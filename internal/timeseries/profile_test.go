package timeseries

import (
	"math"
	"testing"
	"time"
)

func TestMedianProfile(t *testing.T) {
	// Phase 0 observations: 1, 1, 100 (outlier) → median 1.
	s := MustNew(t0, time.Hour, []float64{1, 5, 1, 5, 100, 5})
	prof, err := MedianProfile(s, 2)
	if err != nil {
		t.Fatalf("MedianProfile: %v", err)
	}
	if prof[0] != 1 || prof[1] != 5 {
		t.Errorf("median profile = %v, want [1 5]", prof)
	}
	if _, err := MedianProfile(s, 0); err == nil {
		t.Error("MedianProfile period 0 succeeded")
	}
}

func TestMedianHelper(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, math.NaN()},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range tests {
		if got := median(append([]float64(nil), tc.in...)); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
