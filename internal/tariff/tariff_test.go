package tariff

import (
	"math/rand"
	"testing"
	"time"
)

var t0 = time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)

func TestFlat(t *testing.T) {
	f := Flat{Price: 0.30}
	if f.Rate(t0) != 0.30 || f.Rate(t0.Add(13*time.Hour)) != 0.30 {
		t.Error("flat rate varies")
	}
	if f.IsLow(t0) {
		t.Error("flat tariff reported a low period")
	}
	if f.Name() != "flat" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestTimeOfUseWrapsMidnight(t *testing.T) {
	tou := TimeOfUse{HighPrice: 0.40, LowPrice: 0.15, LowStartHour: 22, LowEndHour: 6}
	tests := []struct {
		hour int
		low  bool
	}{
		{21, false}, {22, true}, {23, true}, {0, true}, {5, true}, {6, false}, {12, false},
	}
	for _, tc := range tests {
		tm := t0.Add(time.Duration(tc.hour) * time.Hour)
		if got := tou.IsLow(tm); got != tc.low {
			t.Errorf("IsLow at %02d:00 = %v, want %v", tc.hour, got, tc.low)
		}
		wantRate := 0.40
		if tc.low {
			wantRate = 0.15
		}
		if got := tou.Rate(tm); got != wantRate {
			t.Errorf("Rate at %02d:00 = %v, want %v", tc.hour, got, wantRate)
		}
	}
}

func TestTimeOfUseNonWrapping(t *testing.T) {
	tou := TimeOfUse{HighPrice: 0.4, LowPrice: 0.1, LowStartHour: 10, LowEndHour: 14}
	if !tou.IsLow(t0.Add(11 * time.Hour)) {
		t.Error("11:00 should be low")
	}
	if tou.IsLow(t0.Add(15 * time.Hour)) {
		t.Error("15:00 should be high")
	}
}

func TestTimeOfUseDegenerateWindow(t *testing.T) {
	tou := TimeOfUse{HighPrice: 0.4, LowPrice: 0.1, LowStartHour: 8, LowEndHour: 8}
	for h := 0; h < 24; h++ {
		if tou.IsLow(t0.Add(time.Duration(h) * time.Hour)) {
			t.Fatalf("degenerate window reported low at %02d:00", h)
		}
	}
	if _, _, ok := tou.LowWindowFrom(t0); ok {
		t.Error("degenerate window returned ok")
	}
}

func TestLowWindowFrom(t *testing.T) {
	tou := TimeOfUse{LowStartHour: 22, LowEndHour: 6}
	// From noon, the next window is 22:00 tonight until 06:00 tomorrow.
	lo, hi, ok := tou.LowWindowFrom(t0.Add(12 * time.Hour))
	if !ok {
		t.Fatal("no window")
	}
	if !lo.Equal(t0.Add(22*time.Hour)) || !hi.Equal(t0.Add(30*time.Hour)) {
		t.Errorf("window = [%v, %v]", lo, hi)
	}
	// From 23:00, the *next beginning* window is tomorrow 22:00.
	lo, _, _ = tou.LowWindowFrom(t0.Add(23 * time.Hour))
	if !lo.Equal(t0.Add(46 * time.Hour)) {
		t.Errorf("next window start = %v", lo)
	}
	// Exactly at the window start.
	lo, _, _ = tou.LowWindowFrom(t0.Add(22 * time.Hour))
	if !lo.Equal(t0.Add(22 * time.Hour)) {
		t.Errorf("window at boundary start = %v", lo)
	}
}

func TestResponseShiftMovesIntoLowWindow(t *testing.T) {
	tou := TimeOfUse{HighPrice: 0.4, LowPrice: 0.1, LowStartHour: 22, LowEndHour: 6}
	r := Response{ShiftProbability: 1}
	rng := rand.New(rand.NewSource(1))
	planned := t0.Add(18 * time.Hour) // 18:00, high tariff
	for i := 0; i < 50; i++ {
		got := r.ShiftStart(rng, planned, 12*time.Hour, tou)
		if !tou.IsLow(got) {
			t.Fatalf("shifted start %v not in low window", got)
		}
		if got.Before(planned) || got.Sub(planned) > 12*time.Hour {
			t.Fatalf("shifted start %v outside slack", got)
		}
	}
}

func TestResponseNoShiftCases(t *testing.T) {
	tou := TimeOfUse{HighPrice: 0.4, LowPrice: 0.1, LowStartHour: 22, LowEndHour: 6}
	rng := rand.New(rand.NewSource(1))
	planned := t0.Add(18 * time.Hour)

	// Zero probability: never shifts.
	if got := (Response{ShiftProbability: 0}).ShiftStart(rng, planned, 12*time.Hour, tou); !got.Equal(planned) {
		t.Errorf("p=0 shifted to %v", got)
	}
	// Flat tariff: never shifts.
	if got := (Response{ShiftProbability: 1}).ShiftStart(rng, planned, 12*time.Hour, Flat{Price: 0.3}); !got.Equal(planned) {
		t.Errorf("flat tariff shifted to %v", got)
	}
	// Window out of reach: slack of 1 hour cannot reach 22:00 from 18:00.
	if got := (Response{ShiftProbability: 1}).ShiftStart(rng, planned, time.Hour, tou); !got.Equal(planned) {
		t.Errorf("out-of-reach window shifted to %v", got)
	}
	// Already in the low window: stays put.
	inWindow := t0.Add(23 * time.Hour)
	if got := (Response{ShiftProbability: 1}).ShiftStart(rng, inWindow, 4*time.Hour, tou); !got.Equal(inWindow) {
		t.Errorf("in-window start shifted to %v", got)
	}
}

func TestResponseShiftSlackBoundary(t *testing.T) {
	tou := TimeOfUse{HighPrice: 0.4, LowPrice: 0.1, LowStartHour: 22, LowEndHour: 6}
	rng := rand.New(rand.NewSource(2))
	planned := t0.Add(18 * time.Hour)
	// Slack exactly reaching the window start: shift lands on 22:00 sharp.
	got := (Response{ShiftProbability: 1}).ShiftStart(rng, planned, 4*time.Hour, tou)
	if !got.Equal(t0.Add(22 * time.Hour)) {
		t.Errorf("boundary shift = %v, want 22:00", got)
	}
}

func TestTimeOfUseName(t *testing.T) {
	tou := TimeOfUse{LowStartHour: 22, LowEndHour: 6}
	if tou.Name() == "" {
		t.Error("empty name")
	}
}
