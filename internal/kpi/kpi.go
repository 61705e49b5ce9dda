// Package kpi measures the quality of the flexibility the market actually
// delivered — not how fast offers were collected, but what the collected
// offers were worth once accepted, scheduled and (sometimes) lost. It
// consumes the market store's lifecycle event stream (a market.Follower:
// a gap-free snapshot+live fold, exactly like the scheduler) and folds it
// into per-owner and global indicators:
//
//   - energy-shift flexibility factor: the share of realised (assigned)
//     energy placed outside the configured daily peak window — the
//     load-shifting KPI of the energy-flexibility-KPI literature, computed
//     on actual assignments instead of building simulations;
//   - peak reduction vs the unshifted baseline: the relative drop of the
//     maximum per-bucket load between "every assigned offer runs at its
//     earliest start with average energies" and the schedule as assigned;
//   - realised-vs-offered flexibility: how much of the offered time and
//     energy flexibility the scheduler actually used;
//   - offer-acceptance precision/recall: accepted offers as predictions of
//     "will be realised", scored once lifecycles settle;
//   - expiry and dead-letter loss ratios: flexibility that was extracted
//     but never monetised.
//
// Every indicator is computable two ways with identical results: the
// incremental Tracker folds one event in O(1), and the batch Compute
// re-derives the same Report from the full history (the property test
// proves them bitwise equal). FromRecords bridges to the REST surface: it
// recomputes the Report from /offers listings, which is what the soak
// test reconciles against a live /kpi response.
//
// docs/KPI.md holds the definitions and the event-stream contract.
package kpi

import (
	"fmt"
	"time"

	"repro/internal/num"
)

// Default configuration: a 15-minute bucket grid (the MIRABEL slice
// resolution) and a 17:00–21:00 UTC peak window (the evening peak the
// soak/household series concentrate consumption in).
const (
	// DefaultResolution is the default peak-tracking bucket width.
	DefaultResolution = 15 * time.Minute
	// DefaultPeakStartHour is the default peak-window start (inclusive, UTC).
	DefaultPeakStartHour = 17
	// DefaultPeakEndHour is the default peak-window end (exclusive, UTC).
	DefaultPeakEndHour = 21
)

// Config fixes the two free parameters every KPI definition depends on.
// The zero value is usable: withDefaults fills in the package defaults.
type Config struct {
	// Resolution is the bucket width used for the baseline/realised load
	// curves behind the peak-reduction KPI. DefaultResolution when zero.
	Resolution time.Duration
	// PeakStartHour and PeakEndHour bound the daily peak window
	// [start,end) in whole UTC hours, for the energy-shift factor.
	// Defaults when both are zero.
	PeakStartHour int
	PeakEndHour   int
}

// withDefaults returns cfg with zero fields replaced by package defaults.
func (c Config) withDefaults() Config {
	if c.Resolution <= 0 {
		c.Resolution = DefaultResolution
	}
	if c.PeakStartHour == 0 && c.PeakEndHour == 0 {
		c.PeakStartHour = DefaultPeakStartHour
		c.PeakEndHour = DefaultPeakEndHour
	}
	return c
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.PeakStartHour < 0 || c.PeakEndHour > 24 || c.PeakStartHour >= c.PeakEndHour {
		return fmt.Errorf("kpi: peak window [%d,%d) must satisfy 0 <= start < end <= 24", c.PeakStartHour, c.PeakEndHour)
	}
	return nil
}

// ConfigView is the JSON shape of the effective configuration in a Report.
type ConfigView struct {
	// ResolutionSeconds is the peak-bucket width in seconds.
	ResolutionSeconds float64 `json:"resolution_seconds"`
	// PeakStartHour and PeakEndHour bound the daily peak window (UTC).
	PeakStartHour int `json:"peak_start_hour"`
	PeakEndHour   int `json:"peak_end_hour"`
}

// view renders the effective configuration.
func (c Config) view() ConfigView {
	c = c.withDefaults()
	return ConfigView{
		ResolutionSeconds: c.Resolution.Seconds(),
		PeakStartHour:     c.PeakStartHour,
		PeakEndHour:       c.PeakEndHour,
	}
}

// Confusion is a binary-classification tally. It is the single source of
// truth for precision/recall arithmetic: the market-side acceptance KPI
// and the offline extraction scorer (internal/eval) both derive their
// rates from here, so the definitions cannot drift apart.
type Confusion struct {
	// TruePositives counts positives that were confirmed.
	TruePositives int `json:"true_positives"`
	// FalsePositives counts positives that were disconfirmed.
	FalsePositives int `json:"false_positives"`
	// FalseNegatives counts confirmed cases that were never predicted.
	FalseNegatives int `json:"false_negatives"`
}

// Precision is TP/(TP+FP), 0 when no positives were predicted.
func (c Confusion) Precision() float64 {
	if c.TruePositives+c.FalsePositives == 0 {
		return 0
	}
	return float64(c.TruePositives) / float64(c.TruePositives+c.FalsePositives)
}

// Recall is TP/(TP+FN), 0 when there were no actual positives.
func (c Confusion) Recall() float64 {
	if c.TruePositives+c.FalseNegatives == 0 {
		return 0
	}
	return float64(c.TruePositives) / float64(c.TruePositives+c.FalseNegatives)
}

// F1 is the harmonic mean of precision and recall, 0 when both are 0.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if num.Zero(p + r) {
		return 0
	}
	return 2 * p * r / (p + r)
}

// PRF bundles a confusion tally with its derived rates — the shape both
// the KPI report and internal/eval's MatchStats embed.
type PRF struct {
	Confusion
	// Precision, Recall and F1 are the rates derived from the tally.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// PRF derives the precision/recall/F1 snapshot of the tally.
func (c Confusion) PRF() PRF {
	return PRF{Confusion: c, Precision: c.Precision(), Recall: c.Recall(), F1: c.F1()}
}

// Totals are the raw per-scope accumulations every derived KPI is a pure
// function of. All float fields are sums folded in event order, so an
// incremental tracker and a batch recompute over the same history produce
// bitwise-identical values.
type Totals struct {
	// Submitted..DeadLettered count lifecycle outcomes. Expired offers
	// split by the state they expired from: ExpiredOffered never got a
	// decision, ExpiredAccepted was accepted but never assigned.
	Submitted       uint64 `json:"submitted"`
	Accepted        uint64 `json:"accepted"`
	Rejected        uint64 `json:"rejected"`
	Assigned        uint64 `json:"assigned"`
	ExpiredOffered  uint64 `json:"expired_offered"`
	ExpiredAccepted uint64 `json:"expired_accepted"`
	DeadLettered    uint64 `json:"dead_lettered"`

	// OfferedKWh is the total average energy of every submitted offer.
	OfferedKWh float64 `json:"offered_kwh"`
	// AssignedKWh is the energy actually scheduled across assignments.
	AssignedKWh float64 `json:"assigned_kwh"`
	// AssignedOfferedKWh is the offered average energy of just the
	// assigned offers — the denominator of the energy-realisation ratio.
	AssignedOfferedKWh float64 `json:"assigned_offered_kwh"`
	// OffPeakAssignedKWh is the assigned energy realised outside the
	// daily peak window; OffPeakBaselineKWh is the same measure for the
	// unshifted baseline placement of the assigned offers.
	OffPeakAssignedKWh float64 `json:"off_peak_assigned_kwh"`
	OffPeakBaselineKWh float64 `json:"off_peak_baseline_kwh"`
	// ShiftSeconds sums |assigned start − earliest start| over
	// assignments; TimeFlexSeconds sums the offered start-window widths
	// of the assigned offers.
	ShiftSeconds    float64 `json:"shift_seconds"`
	TimeFlexSeconds float64 `json:"time_flex_seconds"`
	// BaselinePeakKWh and RealisedPeakKWh are the maximum per-bucket
	// energies of the baseline and realised load curves (0 when no
	// bucket is positive).
	BaselinePeakKWh float64 `json:"baseline_peak_kwh"`
	RealisedPeakKWh float64 `json:"realised_peak_kwh"`
}

// Values is one scope's full KPI snapshot: the raw totals plus every
// derived indicator. Ratios with an empty denominator are 0, never NaN.
type Values struct {
	Totals

	// ShiftFactor is the energy-shift flexibility factor: the share of
	// realised energy placed outside the daily peak window.
	ShiftFactor float64 `json:"shift_factor"`
	// BaselineOffPeakShare is the same share for the unshifted baseline;
	// ShiftFactor above it means scheduling moved energy out of the peak.
	BaselineOffPeakShare float64 `json:"baseline_off_peak_share"`
	// PeakReduction is (baseline peak − realised peak) / baseline peak.
	PeakReduction float64 `json:"peak_reduction"`
	// EnergyRealisation is assigned energy over the offered average
	// energy of the assigned offers.
	EnergyRealisation float64 `json:"energy_realisation"`
	// TimeFlexUse is the used start shift over the offered start-window
	// width, summed across assignments.
	TimeFlexUse float64 `json:"time_flex_use"`
	// Acceptance scores accepted offers as predictions of realisation:
	// assigned = TP, expired-after-accept = FP, expired-undecided = FN
	// (rejections are deliberate negatives and score nowhere).
	Acceptance PRF `json:"acceptance"`
	// ExpiryLossRatio is expired offers (either kind) over submissions.
	ExpiryLossRatio float64 `json:"expiry_loss_ratio"`
	// DeadLetterLossRatio is dead-lettered offers over emissions
	// (submissions + dead letters).
	DeadLetterLossRatio float64 `json:"dead_letter_loss_ratio"`
}

// Report is the full KPI snapshot served on GET /kpi.
type Report struct {
	// Config is the effective KPI configuration.
	Config ConfigView `json:"config"`
	// Events counts the store events folded in (replay and live alike).
	Events uint64 `json:"events"`
	// Global aggregates across every owner.
	Global Values `json:"global"`
	// Owners breaks the KPIs down per offer owner (ConsumerID).
	Owners map[string]Values `json:"owners,omitempty"`
}

// ratio is n/d with the 0/0 → 0 convention every derived KPI uses.
func ratio(n, d float64) float64 {
	if num.Zero(d) {
		return 0
	}
	return n / d
}

// deriveValues computes every indicator from one scope's totals. It is a
// pure function, shared by the incremental and batch paths: equal totals
// imply an equal Values, so equivalence reduces to the accumulations.
func deriveValues(t Totals) Values {
	v := Values{Totals: t}
	v.ShiftFactor = ratio(t.OffPeakAssignedKWh, t.AssignedKWh)
	v.BaselineOffPeakShare = ratio(t.OffPeakBaselineKWh, t.AssignedOfferedKWh)
	if t.BaselinePeakKWh > 0 {
		v.PeakReduction = (t.BaselinePeakKWh - t.RealisedPeakKWh) / t.BaselinePeakKWh
	}
	v.EnergyRealisation = ratio(t.AssignedKWh, t.AssignedOfferedKWh)
	v.TimeFlexUse = ratio(t.ShiftSeconds, t.TimeFlexSeconds)
	v.Acceptance = Confusion{
		TruePositives:  int(t.Assigned),
		FalsePositives: int(t.ExpiredAccepted),
		FalseNegatives: int(t.ExpiredOffered),
	}.PRF()
	if t.Submitted > 0 {
		v.ExpiryLossRatio = float64(t.ExpiredOffered+t.ExpiredAccepted) / float64(t.Submitted)
	}
	if t.Submitted+t.DeadLettered > 0 {
		v.DeadLetterLossRatio = float64(t.DeadLettered) / float64(t.Submitted+t.DeadLettered)
	}
	return v
}

// spreadEnergy distributes kwh consumed over [start, start+dur) into
// res-wide grid buckets pro rata by overlap, calling add once per touched
// bucket with the bucket's grid time (UnixNano) and energy share. A
// non-positive duration books the whole amount on start's bucket. This is
// the definition of the load curves behind the peak-reduction KPI, shared
// verbatim by the incremental and batch paths.
func spreadEnergy(res time.Duration, start time.Time, dur time.Duration, kwh float64, add func(slot int64, kwh float64)) {
	if dur <= 0 {
		add(start.Truncate(res).UnixNano(), kwh)
		return
	}
	end := start.Add(dur)
	for t := start.Truncate(res); t.Before(end); t = t.Add(res) {
		ov := overlapSeconds(start, end, t, t.Add(res))
		add(t.UnixNano(), kwh*ov/dur.Seconds())
	}
}

// overlapSeconds is the length of [as,ae) ∩ [bs,be) in seconds.
func overlapSeconds(as, ae, bs, be time.Time) float64 {
	lo := as
	if bs.After(lo) {
		lo = bs
	}
	hi := ae
	if be.Before(hi) {
		hi = be
	}
	if !lo.Before(hi) {
		return 0
	}
	return hi.Sub(lo).Seconds()
}

// offPeakKWh is the share of kwh consumed over [start, start+dur) that
// falls outside the daily [PeakStartHour, PeakEndHour) UTC window — the
// numerator of the energy-shift flexibility factor. A non-positive
// duration attributes the whole amount by start's hour of day.
func (c Config) offPeakKWh(start time.Time, dur time.Duration, kwh float64) float64 {
	start = start.UTC()
	if dur <= 0 {
		h := start.Hour()
		if h >= c.PeakStartHour && h < c.PeakEndHour {
			return 0
		}
		return kwh
	}
	end := start.Add(dur)
	var peak float64
	for day := start.Truncate(24 * time.Hour); day.Before(end); day = day.Add(24 * time.Hour) {
		ws := day.Add(time.Duration(c.PeakStartHour) * time.Hour)
		we := day.Add(time.Duration(c.PeakEndHour) * time.Hour)
		peak += overlapSeconds(start, end, ws, we)
	}
	return kwh * (1 - peak/dur.Seconds())
}

// peakOf is the maximum positive bucket value of a load curve (0 for an
// empty or all-non-positive curve). max is order-independent, so the
// incremental running peak and this full scan agree bitwise.
func peakOf(buckets map[int64]float64) float64 {
	var peak float64
	for _, v := range buckets {
		if v > peak {
			peak = v
		}
	}
	return peak
}
