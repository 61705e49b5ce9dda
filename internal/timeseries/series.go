// Package timeseries provides the regular time series substrate used across
// the flexibility-extraction system.
//
// A Series is a regularly sampled sequence of energy amounts: Value(i) holds
// the energy, in kWh, consumed (or produced) during the half-open interval
// [TimeAt(i), TimeAt(i)+Resolution()). Representing energy per interval —
// rather than instantaneous power — matches the flex-offer model of the
// MIRABEL project, where profile slices carry energy amounts, and makes
// temporal aggregation exact: downsampling sums energy without loss.
//
// Missing observations are represented as NaN and are skipped by the
// statistics in this package.
//
// # Concurrency and ownership
//
// A Series carries no synchronisation. Any number of goroutines may read a
// Series concurrently (Value, TimeAt, the statistics, Clone, …) as long as
// none mutates it; SetValue requires exclusive access. Code that needs a
// private mutable copy — the extractors in internal/core, for example —
// must Clone first and mutate the clone.
// The batch engine in internal/pipeline relies on exactly this discipline to
// share one input series across many workers; see that package's ownership
// model for the contract it imposes on extractors and sinks.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Common errors returned by Series operations.
var (
	// ErrEmpty is returned when an operation requires a non-empty series.
	ErrEmpty = errors.New("timeseries: empty series")
	// ErrResolution is returned for non-positive or incompatible resolutions.
	ErrResolution = errors.New("timeseries: invalid resolution")
	// ErrMisaligned is returned when two series do not share a start time
	// and resolution as required by element-wise operations.
	ErrMisaligned = errors.New("timeseries: series are misaligned")
	// ErrRange is returned when an index or time range falls outside the series.
	ErrRange = errors.New("timeseries: range out of bounds")
)

// Series is a regularly sampled energy time series. The zero value is not
// usable; construct one with New or Zeros.
//
// Series is not safe for concurrent mutation; concurrent reads are safe.
type Series struct {
	start      time.Time
	resolution time.Duration
	values     []float64
}

// New constructs a Series starting at start with the given resolution and
// values. The values slice is copied. The start time is normalised to UTC.
func New(start time.Time, resolution time.Duration, values []float64) (*Series, error) {
	if resolution <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrResolution, resolution)
	}
	v := make([]float64, len(values))
	copy(v, values)
	return &Series{start: start.UTC(), resolution: resolution, values: v}, nil
}

// MustNew is like New but panics on error. Intended for tests and literals
// with constant arguments.
func MustNew(start time.Time, resolution time.Duration, values []float64) *Series {
	s, err := New(start, resolution, values)
	if err != nil {
		panic(err)
	}
	return s
}

// Zeros constructs a Series of n zero values.
func Zeros(start time.Time, resolution time.Duration, n int) (*Series, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length %d", ErrRange, n)
	}
	return New(start, resolution, make([]float64, n))
}

// Len reports the number of intervals in the series.
func (s *Series) Len() int { return len(s.values) }

// Start reports the start time of the first interval.
func (s *Series) Start() time.Time { return s.start }

// End reports the end of the last interval (exclusive).
func (s *Series) End() time.Time {
	return s.start.Add(time.Duration(len(s.values)) * s.resolution)
}

// Resolution reports the interval duration.
func (s *Series) Resolution() time.Duration { return s.resolution }

// Value reports the energy of interval i. It panics if i is out of range,
// mirroring slice indexing.
func (s *Series) Value(i int) float64 { return s.values[i] }

// SetValue sets the energy of interval i. It panics if i is out of range.
func (s *Series) SetValue(i int, v float64) { s.values[i] = v }

// Values returns a copy of the underlying values.
func (s *Series) Values() []float64 {
	v := make([]float64, len(s.values))
	copy(v, s.values)
	return v
}

// TimeAt reports the start time of interval i. i may equal Len(), in which
// case the series end is returned.
func (s *Series) TimeAt(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.resolution)
}

// IndexOf reports the interval index containing time t and whether t falls
// within the series extent.
func (s *Series) IndexOf(t time.Time) (int, bool) {
	d := t.Sub(s.start)
	if d < 0 {
		return 0, false
	}
	i := int(d / s.resolution)
	if i >= len(s.values) {
		return 0, false
	}
	return i, true
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.values))
	copy(v, s.values)
	return &Series{start: s.start, resolution: s.resolution, values: v}
}

// Slice returns a copy of intervals [i, j).
func (s *Series) Slice(i, j int) (*Series, error) {
	if i < 0 || j > len(s.values) || i > j {
		return nil, fmt.Errorf("%w: slice [%d, %d) of %d", ErrRange, i, j, len(s.values))
	}
	v := make([]float64, j-i)
	copy(v, s.values[i:j])
	return &Series{start: s.TimeAt(i), resolution: s.resolution, values: v}, nil
}

// Window returns the sub-series covering [from, to). Both bounds are clamped
// to the series extent; an error is returned only when the window is
// entirely outside the series or inverted.
func (s *Series) Window(from, to time.Time) (*Series, error) {
	if to.Before(from) {
		return nil, fmt.Errorf("%w: window end before start", ErrRange)
	}
	i := int(math.Ceil(float64(from.Sub(s.start)) / float64(s.resolution)))
	if from.Sub(s.start)%s.resolution == 0 {
		i = int(from.Sub(s.start) / s.resolution)
	}
	j := int(to.Sub(s.start) / s.resolution)
	if to.Sub(s.start)%s.resolution != 0 {
		j++
	}
	if i < 0 {
		i = 0
	}
	if j > len(s.values) {
		j = len(s.values)
	}
	if i >= j {
		return nil, fmt.Errorf("%w: window [%v, %v) outside series", ErrRange, from, to)
	}
	return s.Slice(i, j)
}

// Total reports the sum of all non-missing values (total energy).
func (s *Series) Total() float64 {
	var sum float64
	for _, v := range s.values {
		if !math.IsNaN(v) {
			sum += v
		}
	}
	return sum
}

// aligned reports whether two series share start, resolution and length.
func (s *Series) aligned(o *Series) bool {
	return s.start.Equal(o.start) && s.resolution == o.resolution && len(s.values) == len(o.values)
}

// Add returns a new series with element-wise sums. Both series must be
// aligned (same start, resolution and length).
func (s *Series) Add(o *Series) (*Series, error) {
	if !s.aligned(o) {
		return nil, ErrMisaligned
	}
	out := s.Clone()
	for i := range out.values {
		out.values[i] += o.values[i]
	}
	return out, nil
}

// Sum aggregates several aligned series element-wise, e.g. to form the total
// consumption of a population of households.
func Sum(series ...*Series) (*Series, error) {
	if len(series) == 0 {
		return nil, ErrEmpty
	}
	out := series[0].Clone()
	for _, s := range series[1:] {
		if !out.aligned(s) {
			return nil, ErrMisaligned
		}
		for i := range out.values {
			out.values[i] += s.values[i]
		}
	}
	return out, nil
}

// String implements fmt.Stringer with a compact summary.
func (s *Series) String() string {
	return fmt.Sprintf("Series[%s..%s @%v, n=%d, total=%.3f kWh]",
		s.start.Format(time.RFC3339), s.End().Format(time.RFC3339), s.resolution, len(s.values), s.Total())
}
