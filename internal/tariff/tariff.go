// Package tariff models electricity billing schemes and the consumer
// behaviour change they induce. The multi-tariff extraction approach (§3.3
// of the paper) rests on the observation that under a multi-tariff
// (variable-rate) scheme consumers delay flexible usage (e.g. the washing
// machine) into the low-tariff window (e.g. after 10 PM); this package
// provides both the schemes and that behavioural shift, so paired
// one-tariff/multi-tariff series can be simulated.
package tariff

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/timeseries"
)

// Tariff prices energy over time.
type Tariff interface {
	// Name identifies the scheme.
	Name() string
	// Rate reports the price per kWh at time t (unit: currency/kWh).
	Rate(t time.Time) float64
	// IsLow reports whether t falls in a low-price period. Flat tariffs
	// report false everywhere.
	IsLow(t time.Time) bool
}

// Flat is a single-rate tariff: the "one tariff period" reference series of
// the multi-tariff extraction is billed this way.
type Flat struct {
	// Price is the constant price per kWh.
	Price float64
}

// Name implements Tariff.
func (f Flat) Name() string { return "flat" }

// Rate implements Tariff.
func (f Flat) Rate(time.Time) float64 { return f.Price }

// IsLow implements Tariff; a flat tariff has no low period.
func (f Flat) IsLow(time.Time) bool { return false }

// TimeOfUse is a two-rate multi-tariff scheme with a daily low-price window
// [LowStartHour, LowEndHour) that may wrap over midnight (e.g. 22 → 6).
type TimeOfUse struct {
	// HighPrice applies outside the low window.
	HighPrice float64
	// LowPrice applies inside the low window.
	LowPrice float64
	// LowStartHour is the hour of day (0-23) the low window opens.
	LowStartHour int
	// LowEndHour is the hour of day (0-23) the low window closes
	// (exclusive). Equal start and end means no low window.
	LowEndHour int
}

// Name implements Tariff.
func (t TimeOfUse) Name() string {
	return fmt.Sprintf("time-of-use[low %02d:00-%02d:00]", t.LowStartHour, t.LowEndHour)
}

// IsLow implements Tariff.
func (t TimeOfUse) IsLow(tm time.Time) bool {
	h := tm.UTC().Hour()
	if t.LowStartHour == t.LowEndHour {
		return false
	}
	if t.LowStartHour < t.LowEndHour {
		return h >= t.LowStartHour && h < t.LowEndHour
	}
	// Window wraps midnight.
	return h >= t.LowStartHour || h < t.LowEndHour
}

// Rate implements Tariff.
func (t TimeOfUse) Rate(tm time.Time) float64 {
	if t.IsLow(tm) {
		return t.LowPrice
	}
	return t.HighPrice
}

// LowWindowFrom reports the first low-price window that begins at or after
// ref (its start and exclusive end). ok is false when the scheme has no low
// window.
func (t TimeOfUse) LowWindowFrom(ref time.Time) (start, end time.Time, ok bool) {
	if t.LowStartHour == t.LowEndHour {
		return time.Time{}, time.Time{}, false
	}
	day := timeseries.TruncateDay(ref)
	start = day.Add(time.Duration(t.LowStartHour) * time.Hour)
	for start.Before(ref) {
		start = start.Add(24 * time.Hour)
	}
	length := time.Duration(((t.LowEndHour-t.LowStartHour)+24)%24) * time.Hour
	return start, start.Add(length), true
}

// Response models how strongly a consumer reacts to a multi-tariff scheme.
type Response struct {
	// ShiftProbability is the chance a flexible appliance run is delayed
	// into the next low-price window. 0 disables the behaviour (consumers
	// ignore the tariff); 1 shifts every flexible run.
	ShiftProbability float64
}

// ShiftStart returns the (possibly shifted) start time of a flexible run
// planned at planned with the given shiftable slack. With probability
// ShiftProbability the start moves to a uniformly random time inside the
// next low window that begins within the slack; otherwise (or when the
// tariff has no low window, or the window is out of reach) planned is
// returned unchanged.
func (r Response) ShiftStart(rng *rand.Rand, planned time.Time, slack time.Duration, tr Tariff) time.Time {
	tou, ok := tr.(TimeOfUse)
	if !ok || r.ShiftProbability <= 0 {
		return planned
	}
	if tou.IsLow(planned) {
		return planned // already cheap
	}
	if rng.Float64() >= r.ShiftProbability {
		return planned
	}
	lo, hi, ok := tou.LowWindowFrom(planned)
	if !ok || lo.Sub(planned) > slack {
		return planned
	}
	// Latest admissible shifted start: inside the window and within slack.
	latest := planned.Add(slack)
	if hi.Before(latest) {
		latest = hi
	}
	span := latest.Sub(lo)
	if span <= 0 {
		return lo
	}
	return lo.Add(time.Duration(rng.Int63n(int64(span))))
}
