package obs

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

func TestCounterAndGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "test counter")
	g := reg.NewGauge("g", "test gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Errorf("gauge = %d, want -3", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.005 and 0.01 land in le=0.01 (bounds are inclusive), 0.05 in
	// le=0.1, 0.5 in le=1, 2 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-2.565) > 1e-9 {
		t.Errorf("sum = %v, want 2.565", s.Sum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 4000 {
		t.Errorf("count = %d, want 4000", s.Count)
	}
	if math.Abs(s.Sum-4.0) > 1e-6 {
		t.Errorf("sum = %v, want 4.0", s.Sum)
	}
}

func TestVecChildrenKeyedByLabels(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("req_total", "test", "route", "method")
	v.With("/offers", "GET").Add(2)
	v.With("/offers", "POST").Inc()
	if got := v.With("/offers", "GET").Value(); got != 2 {
		t.Errorf("GET child = %d, want 2", got)
	}
	if got := v.With("/offers", "POST").Value(); got != 1 {
		t.Errorf("POST child = %d, want 1", got)
	}
	// Same values -> same child.
	if v.With("/offers", "GET") != v.With("/offers", "GET") {
		t.Error("With not stable for identical labels")
	}
}

// TestVecChildrenBounded: 8 goroutines make first use of 4,000 distinct
// label pairs on one family. The family stops at maxVecChildren children
// plus the overflow child, which counts every pair past the cap, so the
// total stays exact.
func TestVecChildrenBounded(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("req_total", "test", "route", "method")
	const goroutines, perGoroutine = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				v.With("/r"+strconv.Itoa(g), strconv.Itoa(i)).Inc()
			}
		}(g)
	}
	wg.Wait()

	children := v.sorted()
	if len(children) > maxVecChildren+1 {
		t.Errorf("family holds %d children, want at most %d", len(children), maxVecChildren+1)
	}
	var total, other uint64
	for _, c := range children {
		total += c.metric.Value()
		if c.labels[0].Value == "other" && c.labels[1].Value == "other" {
			other = c.metric.Value()
		}
	}
	if total != goroutines*perGoroutine {
		t.Errorf("children sum to %d, want %d", total, goroutines*perGoroutine)
	}
	if want := uint64(goroutines*perGoroutine - maxVecChildren); other != want {
		t.Errorf("overflow child = %d, want %d", other, want)
	}
}

func TestVecWrongArityPanics(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("x_total", "test", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestDuplicateFamilyPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate family name did not panic")
		}
	}()
	reg.NewGauge("dup_total", "second")
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("q_seconds", "test", []float64{1, 2, 4, 8})
	// 10 observations spread one per unit across (0,1] and (1,2], then a
	// tail: buckets get 4, 4, 1, 1 observations and +Inf gets 0.
	for i := 0; i < 4; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	h.Observe(3)
	h.Observe(7)
	s := h.Snapshot()

	if got := s.Quantile(0.5); got != 1.25 {
		// rank 5 lands 1 observation into the (1,2] bucket of 4: 1 + 1/4.
		t.Errorf("p50 = %v, want 1.25", got)
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("p0 = %v, want 0", got)
	}
	if got := s.Quantile(1); got != 8 {
		t.Errorf("p100 = %v, want 8", got)
	}
	if got := s.Quantile(0.95); got < 4 || got > 8 {
		t.Errorf("p95 = %v, want within (4,8]", got)
	}

	// Observations beyond the last bound clamp to it.
	h.Observe(100)
	if got := h.Snapshot().Quantile(1); got != 8 {
		t.Errorf("p100 with +Inf tail = %v, want clamp to 8", got)
	}

	// Empty histogram: NaN.
	empty := reg.NewHistogram("empty_seconds", "test", []float64{1}).Snapshot()
	if got := empty.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}
