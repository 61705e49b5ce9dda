package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q, want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
	// Never an interpolated value: every answer is a sample.
	two := []float64{1, 3}
	if got := quantile(two, 0.75); got != 3 {
		t.Errorf("quantile({1,3}, 0.75) = %v, want 3", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	xs := []float64{3, 1}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestWindowedQuantile(t *testing.T) {
	// Three windows of 10: tails 10, 20 (one stall) and 30; the reported
	// tail is their median, so the stall in window two does not dominate.
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 10; i++ {
			xs = append(xs, float64(i))
		}
	}
	xs[15] = 1000
	got, n := windowedQuantile(xs, 0.99, 10)
	if n != 3 || got != 10 {
		t.Errorf("windowedQuantile = %v over %d windows, want 10 over 3", got, n)
	}
	// A trailing partial window joins the last full one.
	got, n = windowedQuantile(append(xs, 500, 600, 700), 0.99, 10)
	if n != 3 || got != 700 {
		t.Errorf("with a partial tail: %v over %d windows, want 700 (merged window's p99 is its max) over 3", got, n)
	}
	// Fewer samples than one window: one window over all of them.
	got, n = windowedQuantile([]float64{5, 1, 3}, 0.5, 10)
	if n != 1 || got != 3 {
		t.Errorf("short input: %v over %d windows, want 3 over 1", got, n)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"nested", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", []interval{{10, 40}, {30, 60}}, 50},
		{"child inside a child", []interval{{10, 60}, {20, 30}}, 50},
		{"children clipped to the parent", []interval{{-20, 10}, {90, 150}}, 80},
		{"child outside the parent", []interval{{200, 300}}, 100},
		{"unsorted", []interval{{70, 80}, {0, 10}, {5, 15}}, 75},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
