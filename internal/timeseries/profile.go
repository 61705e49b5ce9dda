package timeseries

import (
	"fmt"
	"math"
)

// MedianProfile computes the per-phase median profile over the given period,
// which is more robust to occasional appliance activations than the mean and
// therefore preferred when estimating the inflexible base consumption.
func MedianProfile(s *Series, period int) ([]float64, error) {
	if period < 1 {
		return nil, fmt.Errorf("timeseries: profile period %d < 1", period)
	}
	if s.Len() == 0 {
		return nil, ErrEmpty
	}
	buckets := make([][]float64, period)
	for i, v := range s.values {
		if math.IsNaN(v) {
			continue
		}
		p := i % period
		buckets[p] = append(buckets[p], v)
	}
	out := make([]float64, period)
	for p := 0; p < period; p++ {
		out[p] = median(buckets[p])
	}
	return out, nil
}

// median reports the median of vals, or NaN when empty. vals is reordered.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	// Insertion sort: phase buckets are short (one per day of history).
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}
