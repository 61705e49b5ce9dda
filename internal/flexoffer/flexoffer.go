// Package flexoffer implements the MIRABEL flex-offer concept: a profile of
// consecutive energy slices with per-slice minimum/maximum energy bounds
// (energy flexibility) and a start-time window (time flexibility), plus the
// lifecycle timestamps the market protocol requires.
//
// The model follows Fig. 1 of Kaulakienė et al. (EDBT/ICDT Workshops 2013):
// an offer states that its profile may begin anywhere in
// [EarliestStart, LatestStart], that slice i then consumes between
// MinEnergy(i) and MaxEnergy(i) kWh, and that the whole profile finishes by
// LatestEnd = LatestStart + profile duration.
package flexoffer

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Common validation errors.
var (
	ErrEmptyProfile   = errors.New("flexoffer: empty profile")
	ErrSliceBounds    = errors.New("flexoffer: slice energy bounds invalid")
	ErrSliceDuration  = errors.New("flexoffer: slice duration must be positive")
	ErrTimeWindow     = errors.New("flexoffer: invalid time window")
	ErrLifecycleOrder = errors.New("flexoffer: lifecycle timestamps out of order")
	ErrInfeasible     = errors.New("flexoffer: infeasible assignment")
)

// Slice is one interval of a flex-offer profile. MinEnergy and MaxEnergy
// bound the energy consumed during the slice; the solid and dotted areas of
// the paper's Fig. 1. Negative energies represent production flex-offers
// (the paper's §6 future-work direction); MinEnergy <= MaxEnergy must always
// hold.
type Slice struct {
	// Duration of the slice. In MIRABEL slices are usually 15 minutes.
	Duration time.Duration `json:"duration"`
	// MinEnergy is the minimum required energy in kWh.
	MinEnergy float64 `json:"min_energy_kwh"`
	// MaxEnergy is the maximum acceptable energy in kWh.
	MaxEnergy float64 `json:"max_energy_kwh"`
}

// AvgEnergy reports the midpoint of the slice's energy bounds, used as the
// default scheduled amount.
func (s Slice) AvgEnergy() float64 { return (s.MinEnergy + s.MaxEnergy) / 2 }

// EnergyFlexibility reports MaxEnergy - MinEnergy.
func (s Slice) EnergyFlexibility() float64 { return s.MaxEnergy - s.MinEnergy }

// FlexOffer is a flexibility object covering one potential (shiftable)
// consumption or production event.
type FlexOffer struct {
	// ID identifies the offer. Extraction assigns sequential IDs; callers
	// may overwrite them.
	ID string `json:"id"`
	// ConsumerID identifies the consumer (household / metering point) the
	// offer was extracted for.
	ConsumerID string `json:"consumer_id,omitempty"`
	// Appliance optionally names the appliance an appliance-level offer
	// represents (§4); empty for total-household offers (§3).
	Appliance string `json:"appliance,omitempty"`

	// CreationTime is when the offer was created.
	CreationTime time.Time `json:"creation_time"`
	// AcceptanceTime is the deadline by which the market must accept or
	// reject the offer.
	AcceptanceTime time.Time `json:"acceptance_time"`
	// AssignmentTime is the deadline by which an accepted offer must be
	// assigned a concrete start time.
	AssignmentTime time.Time `json:"assignment_time"`

	// EarliestStart is the earliest admissible profile start.
	EarliestStart time.Time `json:"earliest_start"`
	// LatestStart is the latest admissible profile start.
	LatestStart time.Time `json:"latest_start"`

	// Profile is the sequence of consecutive slices.
	Profile []Slice `json:"profile"`

	// TotalConstraint optionally bounds the *sum* of scheduled slice
	// energies tighter than the per-slice bounds allow — the MIRABEL
	// total-energy constraint (e.g. "between 45 and 50 kWh overall, even
	// though the slices individually admit more"). Nil means the slice
	// sums are the only bound.
	TotalConstraint *EnergyConstraint `json:"total_constraint,omitempty"`
}

// EnergyConstraint is an inclusive energy interval in kWh.
type EnergyConstraint struct {
	Min float64 `json:"min_kwh"`
	Max float64 `json:"max_kwh"`
}

// Duration reports the total profile duration.
func (f *FlexOffer) Duration() time.Duration {
	var d time.Duration
	for _, s := range f.Profile {
		d += s.Duration
	}
	return d
}

// LatestEnd reports the latest time at which the profile can finish:
// LatestStart plus the profile duration (the "latest end time" of Fig. 1).
func (f *FlexOffer) LatestEnd() time.Time { return f.LatestStart.Add(f.Duration()) }

// TimeFlexibility reports how far the profile start may be shifted:
// LatestStart - EarliestStart.
func (f *FlexOffer) TimeFlexibility() time.Duration {
	return f.LatestStart.Sub(f.EarliestStart)
}

// TotalMinEnergy reports the sum of per-slice minimum energies.
func (f *FlexOffer) TotalMinEnergy() float64 {
	var e float64
	for _, s := range f.Profile {
		e += s.MinEnergy
	}
	return e
}

// TotalMaxEnergy reports the sum of per-slice maximum energies.
func (f *FlexOffer) TotalMaxEnergy() float64 {
	var e float64
	for _, s := range f.Profile {
		e += s.MaxEnergy
	}
	return e
}

// TotalAvgEnergy reports the sum of per-slice average energies — the
// paper's "total energy amount (the sum of the average required energy in
// the profile intervals)" (§3.1).
func (f *FlexOffer) TotalAvgEnergy() float64 {
	var e float64
	for _, s := range f.Profile {
		e += s.AvgEnergy()
	}
	return e
}

// EnergyFlexibility reports the total spread between maximum and minimum
// energy across the profile.
func (f *FlexOffer) EnergyFlexibility() float64 {
	return f.TotalMaxEnergy() - f.TotalMinEnergy()
}

// Validate checks the structural invariants of the offer:
// a non-empty profile of positive-duration slices with Min <= Max, an
// ordered start window, and ordered lifecycle timestamps
// (creation <= acceptance <= assignment <= earliest start <= latest start).
// Zero-valued lifecycle timestamps are treated as "not specified" and only
// the specified ones are checked for order.
func (f *FlexOffer) Validate() error {
	if len(f.Profile) == 0 {
		return fmt.Errorf("%w (offer %s)", ErrEmptyProfile, f.ID)
	}
	for i, s := range f.Profile {
		if s.Duration <= 0 {
			return fmt.Errorf("%w: slice %d of offer %s has duration %v", ErrSliceDuration, i, f.ID, s.Duration)
		}
		// NaN fails every ordered comparison, so min > max would not catch
		// it; a NaN bound must never enter a store or scheduler.
		if math.IsNaN(s.MinEnergy) || math.IsNaN(s.MaxEnergy) || s.MinEnergy > s.MaxEnergy {
			return fmt.Errorf("%w: slice %d of offer %s has min %.4f > max %.4f",
				ErrSliceBounds, i, f.ID, s.MinEnergy, s.MaxEnergy)
		}
	}
	if f.LatestStart.Before(f.EarliestStart) {
		return fmt.Errorf("%w: latest start %v before earliest start %v (offer %s)",
			ErrTimeWindow, f.LatestStart, f.EarliestStart, f.ID)
	}
	if c := f.TotalConstraint; c != nil {
		if math.IsNaN(c.Min) || math.IsNaN(c.Max) || c.Min > c.Max {
			return fmt.Errorf("%w: total constraint [%.4f, %.4f] inverted (offer %s)",
				ErrSliceBounds, c.Min, c.Max, f.ID)
		}
		// The constraint interval must intersect what the slices admit.
		if c.Max < f.TotalMinEnergy() || c.Min > f.TotalMaxEnergy() {
			return fmt.Errorf("%w: total constraint [%.4f, %.4f] incompatible with slice bounds [%.4f, %.4f] (offer %s)",
				ErrSliceBounds, c.Min, c.Max, f.TotalMinEnergy(), f.TotalMaxEnergy(), f.ID)
		}
	}
	// Lifecycle order over the specified (non-zero) timestamps.
	seq := []struct {
		name string
		t    time.Time
	}{
		{"creation", f.CreationTime},
		{"acceptance", f.AcceptanceTime},
		{"assignment", f.AssignmentTime},
		{"earliest start", f.EarliestStart},
	}
	var prevName string
	var prev time.Time
	for _, step := range seq {
		if step.t.IsZero() {
			continue
		}
		if !prev.IsZero() && step.t.Before(prev) {
			return fmt.Errorf("%w: %s %v before %s %v (offer %s)",
				ErrLifecycleOrder, step.name, step.t, prevName, prev, f.ID)
		}
		prevName, prev = step.name, step.t
	}
	return nil
}

// Clone returns a deep copy of the offer.
func (f *FlexOffer) Clone() *FlexOffer {
	c := *f
	c.Profile = make([]Slice, len(f.Profile))
	copy(c.Profile, f.Profile)
	if f.TotalConstraint != nil {
		tc := *f.TotalConstraint
		c.TotalConstraint = &tc
	}
	return &c
}

// EffectiveTotalBounds reports the tightest admissible range for the total
// scheduled energy: the slice sums intersected with the total constraint
// (when present).
func (f *FlexOffer) EffectiveTotalBounds() (min, max float64) {
	min, max = f.TotalMinEnergy(), f.TotalMaxEnergy()
	if c := f.TotalConstraint; c != nil {
		if c.Min > min {
			min = c.Min
		}
		if c.Max < max {
			max = c.Max
		}
	}
	return min, max
}

// UniformProfile builds n slices of the given duration, each bounded by
// [minEnergy, maxEnergy] kWh. It is the common case for extracted offers
// whose flexible energy is spread evenly over the profile.
func UniformProfile(n int, duration time.Duration, minEnergy, maxEnergy float64) []Slice {
	p := make([]Slice, n)
	for i := range p {
		p[i] = Slice{Duration: duration, MinEnergy: minEnergy, MaxEnergy: maxEnergy}
	}
	return p
}

// String implements fmt.Stringer with a compact, log-friendly summary.
func (f *FlexOffer) String() string {
	return fmt.Sprintf("FlexOffer[%s: start %s..%s, %d slices/%v, energy %.3f..%.3f kWh]",
		f.ID,
		f.EarliestStart.Format("2006-01-02T15:04"),
		f.LatestStart.Format("2006-01-02T15:04"),
		len(f.Profile), f.Duration(), f.TotalMinEnergy(), f.TotalMaxEnergy())
}
