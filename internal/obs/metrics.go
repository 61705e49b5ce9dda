package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; all methods are safe for concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down (queue depths, busy
// workers, current state counts). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reports the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 updated with compare-and-swap on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// DefBuckets is the default latency bucket layout, in seconds: sub-
// millisecond through ten seconds, the span an in-memory store and a batch
// extraction pipeline actually produce.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket distribution with a running sum and count,
// rendered in Prometheus's cumulative le convention. Observations are
// lock-free. Create histograms through a Registry (NewHistogram) so they
// are part of an exposition.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value (for latency histograms: seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds, ascending, excluding +Inf.
	Bounds []float64
	// Counts holds per-bucket (non-cumulative) observation counts;
	// Counts[len(Bounds)] is the +Inf bucket.
	Counts []uint64
	// Sum is the sum of all observed values.
	Sum float64
	// Count is the total number of observations.
	Count uint64
}

// Snapshot copies the histogram's current state. Concurrent Observe calls
// may make the copy slightly inconsistent (sum vs counts), which is the
// standard scrape-time tolerance.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution by linear interpolation inside the bucket the quantile
// falls in — the same estimate Prometheus's histogram_quantile computes.
// Observations in the +Inf bucket clamp to the highest finite bound, and
// an empty histogram reports NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: no upper bound to interpolate toward.
			if len(s.Bounds) == 0 {
				return math.NaN()
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		// Position of the rank within this bucket's count.
		frac := (rank - (cum - float64(c))) / float64(c)
		return lower + (upper-lower)*frac
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Label is one name/value pair attached to a metric child.
type Label struct {
	// Name is the label name (e.g. "route").
	Name string
	// Value is the label value (e.g. "/offers").
	Value string
}

// labelString renders labels as `{k="v",...}`, or "" when empty.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// maxVecChildren caps the children of one labelled family, so no input,
// however many distinct label values it carries, can grow a family (or
// /metrics) without limit. The daemon's largest family,
// mirabeld_http_requests_total, has at most 16 route labels
// (market.RouteLabel) × 8 method labels (methodLabel) × 4 status classes
// (statusClass) = 512 children; the cap leaves it twice that.
const maxVecChildren = 1024

// vec is the child map behind CounterVec and HistogramVec, one child per
// label-value combination, made by newChild. Past maxVecChildren children,
// every new combination counts under one overflow child whose labels are
// all "other": totals stay exact and the family stays bounded.
type vec[M any] struct {
	names    []string
	newChild func() M
	mu       sync.RWMutex
	children map[string]*vecChild[M]
}

type vecChild[M any] struct {
	labels []Label
	metric M
}

// with returns (creating on first use) the child for the given label
// values, which must match the family's label names in number and order.
func (v *vec[M]) with(values []string) M {
	if len(values) != len(v.names) {
		panic(fmt.Sprintf("obs: got %d label values for labels %q", len(values), v.names))
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c.metric
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.children) >= maxVecChildren && v.children[key] == nil {
		values = make([]string, len(v.names))
		for i := range values {
			values[i] = "other"
		}
		key = strings.Join(values, "\xff")
	}
	if c, ok := v.children[key]; ok {
		return c.metric
	}
	c = &vecChild[M]{labels: make([]Label, len(v.names)), metric: v.newChild()}
	for i, n := range v.names {
		c.labels[i] = Label{Name: n, Value: values[i]}
	}
	v.children[key] = c
	return c.metric
}

// sorted returns the children ordered by rendered label string, so
// expositions are deterministic.
func (v *vec[M]) sorted() []*vecChild[M] {
	v.mu.RLock()
	out := make([]*vecChild[M], 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return labelString(out[i].labels) < labelString(out[j].labels)
	})
	return out
}

// CounterVec is a family of Counters keyed by label values, e.g. one
// request counter per (route, method, status), bounded at maxVecChildren
// children plus an overflow child.
type CounterVec struct{ vec[*Counter] }

// With returns (creating on first use) the child counter for the given
// label values, which must match the vec's label names in number and order.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// HistogramVec is a family of Histograms keyed by label values, e.g. one
// latency histogram per route, bounded like CounterVec.
type HistogramVec struct{ vec[*Histogram] }

// With returns (creating on first use) the child histogram for the given
// label values, which must match the vec's label names in number and order.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }
