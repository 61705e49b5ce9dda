package timeseries

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/num"
)

// Statistics in this file skip NaN (missing) observations. When every
// observation is missing the neutral value 0 (or NaN where documented) is
// returned rather than an error, because callers typically fold statistics
// into larger computations.

// Mean reports the arithmetic mean of non-missing values, or NaN when there
// are none.
func (s *Series) Mean() float64 {
	var sum float64
	var n int
	for _, v := range s.values {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// CountMissing reports the number of NaN values in the series.
func (s *Series) CountMissing() int {
	var n int
	for _, v := range s.values {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}

// Min reports the smallest non-missing value, or NaN when there are none.
func (s *Series) Min() float64 {
	min := math.NaN()
	for _, v := range s.values {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(min) || v < min {
			min = v
		}
	}
	return min
}

// Max reports the largest non-missing value, or NaN when there are none.
func (s *Series) Max() float64 {
	max := math.NaN()
	for _, v := range s.values {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(max) || v > max {
			max = v
		}
	}
	return max
}

// Quantile reports the q-quantile (0 <= q <= 1) of non-missing values using
// linear interpolation between order statistics, or NaN when there are none.
func (s *Series) Quantile(q float64) float64 {
	var vals []float64
	for _, v := range s.values {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return vals[0]
	}
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return vals[lo]
	}
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}

// Sparseness reports the fraction of non-missing values whose magnitude is
// at most eps. The paper lists sparseness among the statistics one would
// compare against real flex-offer data (§3.1).
func (s *Series) Sparseness(eps float64) float64 {
	var zero, n int
	for _, v := range s.values {
		if math.IsNaN(v) {
			continue
		}
		n++
		if math.Abs(v) <= eps {
			zero++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(zero) / float64(n)
}

// Autocorrelation reports the lag-k autocorrelation coefficient of the
// series. Missing values propagate: pairs with a NaN member are skipped.
// Returns NaN for out-of-range lags or constant series.
func (s *Series) Autocorrelation(lag int) float64 {
	n := len(s.values)
	if lag < 0 || lag >= n {
		return math.NaN()
	}
	m := s.Mean()
	if math.IsNaN(m) {
		return math.NaN()
	}
	var numer, den float64
	for i := 0; i < n; i++ {
		v := s.values[i]
		if math.IsNaN(v) {
			continue
		}
		d := v - m
		den += d * d
		if i+lag < n && !math.IsNaN(s.values[i+lag]) {
			numer += d * (s.values[i+lag] - m)
		}
	}
	if num.Zero(den) {
		return math.NaN()
	}
	return numer / den
}

// PeakToAverage reports the ratio of the maximum to the mean value — a
// simple peakiness measure used when judging how concentrated consumption
// (or extracted flexibility) is. Returns NaN for empty or zero-mean series.
func (s *Series) PeakToAverage() float64 {
	m := s.Mean()
	if math.IsNaN(m) || num.Zero(m) {
		return math.NaN()
	}
	return s.Max() / m
}

// BlockQuantileBaseline estimates a slowly varying baseline: the series is
// partitioned into blocks of `window` intervals, each block contributes its
// q-quantile at the block centre, and the baseline interpolates linearly
// between centres (clamped flat at the edges). Unlike a per-phase profile,
// this baseline cannot absorb loads that recur at the same time every day —
// the classic blind spot of phase-median base estimation in load
// disaggregation. Returns an error for invalid windows or quantiles.
func (s *Series) BlockQuantileBaseline(window int, q float64) (*Series, error) {
	n := s.Len()
	if window < 1 || window > n {
		return nil, fmt.Errorf("%w: window %d for series of %d", ErrRange, window, n)
	}
	if q < 0 || q > 1 {
		return nil, fmt.Errorf("%w: quantile %v", ErrRange, q)
	}
	type anchor struct {
		center int
		value  float64
	}
	var anchors []anchor
	for from := 0; from < n; from += window {
		to := from + window
		if to > n {
			to = n
		}
		block, err := s.Slice(from, to)
		if err != nil {
			return nil, err
		}
		v := block.Quantile(q)
		if math.IsNaN(v) {
			continue // all-missing block contributes no anchor
		}
		anchors = append(anchors, anchor{center: (from + to) / 2, value: v})
	}
	out := make([]float64, n)
	if len(anchors) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return &Series{start: s.start, resolution: s.resolution, values: out}, nil
	}
	ai := 0
	for i := 0; i < n; i++ {
		for ai+1 < len(anchors) && anchors[ai+1].center <= i {
			ai++
		}
		switch {
		case i <= anchors[0].center:
			out[i] = anchors[0].value
		case i >= anchors[len(anchors)-1].center:
			out[i] = anchors[len(anchors)-1].value
		default:
			a, b := anchors[ai], anchors[ai+1]
			frac := float64(i-a.center) / float64(b.center-a.center)
			out[i] = a.value + frac*(b.value-a.value)
		}
	}
	return &Series{start: s.start, resolution: s.resolution, values: out}, nil
}
