package timeseries

import (
	"errors"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestNewValidates(t *testing.T) {
	if _, err := New(t0, 0, []float64{1}); !errors.Is(err, ErrResolution) {
		t.Fatalf("New with zero resolution: err = %v, want ErrResolution", err)
	}
	if _, err := New(t0, -time.Minute, []float64{1}); !errors.Is(err, ErrResolution) {
		t.Fatalf("New with negative resolution: err = %v, want ErrResolution", err)
	}
	s, err := New(t0, 15*time.Minute, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestNewCopiesValues(t *testing.T) {
	vals := []float64{1, 2, 3}
	s := MustNew(t0, time.Hour, vals)
	vals[0] = 99
	if s.Value(0) != 1 {
		t.Errorf("New did not copy values: Value(0) = %v", s.Value(0))
	}
	got := s.Values()
	got[1] = 99
	if s.Value(1) != 2 {
		t.Errorf("Values did not copy: Value(1) = %v", s.Value(1))
	}
}

func TestStartNormalizedToUTC(t *testing.T) {
	loc := time.FixedZone("CET", 3600)
	s := MustNew(time.Date(2012, 6, 1, 1, 0, 0, 0, loc), time.Hour, []float64{1})
	if got := s.Start(); !got.Equal(t0) || got.Location() != time.UTC {
		t.Errorf("Start = %v, want %v in UTC", got, t0)
	}
}

func TestEndAndTimeAt(t *testing.T) {
	s := MustNew(t0, 15*time.Minute, make([]float64, 96))
	if want := t0.Add(24 * time.Hour); !s.End().Equal(want) {
		t.Errorf("End = %v, want %v", s.End(), want)
	}
	if want := t0.Add(30 * time.Minute); !s.TimeAt(2).Equal(want) {
		t.Errorf("TimeAt(2) = %v, want %v", s.TimeAt(2), want)
	}
}

func TestIndexOfAndAt(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{10, 20, 30})
	tests := []struct {
		t      time.Time
		wantI  int
		wantOK bool
	}{
		{t0, 0, true},
		{t0.Add(59 * time.Minute), 0, true},
		{t0.Add(time.Hour), 1, true},
		{t0.Add(3 * time.Hour), 0, false},
		{t0.Add(-time.Second), 0, false},
	}
	for _, tc := range tests {
		i, ok := s.IndexOf(tc.t)
		if ok != tc.wantOK || (ok && i != tc.wantI) {
			t.Errorf("IndexOf(%v) = (%d, %v), want (%d, %v)", tc.t, i, ok, tc.wantI, tc.wantOK)
		}
	}
}

func TestSliceAndWindow(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{0, 1, 2, 3, 4, 5})
	sub, err := s.Slice(2, 5)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if sub.Len() != 3 || sub.Value(0) != 2 || !sub.Start().Equal(t0.Add(2*time.Hour)) {
		t.Errorf("Slice(2,5) = %v", sub)
	}
	if _, err := s.Slice(4, 2); !errors.Is(err, ErrRange) {
		t.Errorf("inverted Slice err = %v, want ErrRange", err)
	}
	if _, err := s.Slice(0, 7); !errors.Is(err, ErrRange) {
		t.Errorf("overlong Slice err = %v, want ErrRange", err)
	}

	win, err := s.Window(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if win.Len() != 2 || win.Value(0) != 1 {
		t.Errorf("Window = %v", win)
	}
	// Window clamps to the series extent.
	win, err = s.Window(t0.Add(-time.Hour), t0.Add(100*time.Hour))
	if err != nil {
		t.Fatalf("clamped Window: %v", err)
	}
	if win.Len() != 6 {
		t.Errorf("clamped Window len = %d, want 6", win.Len())
	}
	if _, err := s.Window(t0.Add(10*time.Hour), t0.Add(12*time.Hour)); !errors.Is(err, ErrRange) {
		t.Errorf("out-of-range Window err = %v, want ErrRange", err)
	}
	if _, err := s.Window(t0.Add(2*time.Hour), t0); !errors.Is(err, ErrRange) {
		t.Errorf("inverted Window err = %v, want ErrRange", err)
	}
}

func TestWindowPartialIntervals(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{0, 1, 2, 3})
	// A window starting mid-interval should start at the next full interval,
	// and a window ending mid-interval should include that interval.
	win, err := s.Window(t0.Add(30*time.Minute), t0.Add(150*time.Minute))
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if !win.Start().Equal(t0.Add(time.Hour)) || win.Len() != 2 {
		t.Errorf("partial Window = %v (start %v, len %d)", win, win.Start(), win.Len())
	}
}

func TestArithmetic(t *testing.T) {
	a := MustNew(t0, time.Hour, []float64{1, 2, 3})
	b := MustNew(t0, time.Hour, []float64{10, 20, 30})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if sum.Value(2) != 33 {
		t.Errorf("Add value = %v, want 33", sum.Value(2))
	}
	// Source series untouched.
	if a.Value(0) != 1 || b.Value(0) != 10 {
		t.Error("Add mutated operands")
	}
	c := MustNew(t0.Add(time.Hour), time.Hour, []float64{1, 2, 3})
	if _, err := a.Add(c); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned Add err = %v, want ErrMisaligned", err)
	}
	d := MustNew(t0, 30*time.Minute, []float64{1, 2, 3})
	if _, err := a.Add(d); !errors.Is(err, ErrMisaligned) {
		t.Errorf("different-resolution Add err = %v, want ErrMisaligned", err)
	}
}

func TestTotalSkipsNaN(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, math.NaN(), 3})
	if got := s.Total(); got != 4 {
		t.Errorf("Total = %v, want 4", got)
	}
}

func TestSum(t *testing.T) {
	a := MustNew(t0, time.Hour, []float64{1, 2})
	b := MustNew(t0, time.Hour, []float64{3, 4})
	c := MustNew(t0, time.Hour, []float64{5, 6})
	got, err := Sum(a, b, c)
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	if got.Value(0) != 9 || got.Value(1) != 12 {
		t.Errorf("Sum values = %v", got.Values())
	}
	if _, err := Sum(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty Sum err = %v, want ErrEmpty", err)
	}
	d := MustNew(t0, 30*time.Minute, []float64{1, 2})
	if _, err := Sum(a, d); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned Sum err = %v, want ErrMisaligned", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, 2})
	c := s.Clone()
	c.SetValue(0, 99)
	if s.Value(0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestZeros(t *testing.T) {
	s, err := Zeros(t0, time.Hour, 5)
	if err != nil {
		t.Fatalf("Zeros: %v", err)
	}
	if s.Len() != 5 || s.Total() != 0 {
		t.Errorf("Zeros = %v", s)
	}
	if _, err := Zeros(t0, time.Hour, -1); err == nil {
		t.Error("Zeros(-1) succeeded, want error")
	}
}

func TestStringSummary(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, 2})
	str := s.String()
	if str == "" {
		t.Error("String() empty")
	}
}
