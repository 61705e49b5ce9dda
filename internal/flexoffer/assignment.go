package flexoffer

import (
	"fmt"
	"time"

	"repro/internal/num"
	"repro/internal/timeseries"
)

// Assignment is a concrete schedule for a flex-offer: a start time inside
// the offer's window and one energy amount per profile slice, each inside
// the slice's bounds. Scheduling (MIRABEL's step after aggregation [5])
// produces assignments.
type Assignment struct {
	Offer *FlexOffer `json:"offer"`
	// Start is the assigned profile start time.
	Start time.Time `json:"start"`
	// Energies holds the scheduled energy per slice, in kWh.
	Energies []float64 `json:"energies_kwh"`
}

// Assign schedules the offer at the given start with explicit per-slice
// energies. It returns ErrInfeasible when the start is outside the window or
// any energy violates its slice bounds.
func (f *FlexOffer) Assign(start time.Time, energies []float64) (*Assignment, error) {
	if start.Before(f.EarliestStart) || start.After(f.LatestStart) {
		return nil, fmt.Errorf("%w: start %v outside [%v, %v] (offer %s)",
			ErrInfeasible, start, f.EarliestStart, f.LatestStart, f.ID)
	}
	if len(energies) != len(f.Profile) {
		return nil, fmt.Errorf("%w: %d energies for %d slices (offer %s)",
			ErrInfeasible, len(energies), len(f.Profile), f.ID)
	}
	var total float64
	for i, e := range energies {
		s := f.Profile[i]
		if !num.Within(e, s.MinEnergy, s.MaxEnergy, num.DefaultTol) {
			return nil, fmt.Errorf("%w: slice %d energy %.4f outside [%.4f, %.4f] (offer %s)",
				ErrInfeasible, i, e, s.MinEnergy, s.MaxEnergy, f.ID)
		}
		total += e
	}
	if c := f.TotalConstraint; c != nil {
		if !num.Within(total, c.Min, c.Max, num.DefaultTol) {
			return nil, fmt.Errorf("%w: total energy %.4f outside constraint [%.4f, %.4f] (offer %s)",
				ErrInfeasible, total, c.Min, c.Max, f.ID)
		}
	}
	es := make([]float64, len(energies))
	copy(es, energies)
	return &Assignment{Offer: f, Start: start, Energies: es}, nil
}

// FitEnergies adjusts the proposed per-slice energies so that every slice
// stays within its bounds and the total lands inside the offer's effective
// total bounds, moving as little energy as possible: energies are first
// clamped per slice, then the surplus or deficit is redistributed across
// slices proportionally to their remaining headroom. The input slice is not
// modified.
func (f *FlexOffer) FitEnergies(proposed []float64) ([]float64, error) {
	if len(proposed) != len(f.Profile) {
		return nil, fmt.Errorf("%w: %d energies for %d slices (offer %s)",
			ErrInfeasible, len(proposed), len(f.Profile), f.ID)
	}
	out := make([]float64, len(proposed))
	var total float64
	for i, e := range proposed {
		s := f.Profile[i]
		if e < s.MinEnergy {
			e = s.MinEnergy
		}
		if e > s.MaxEnergy {
			e = s.MaxEnergy
		}
		out[i] = e
		total += e
	}
	lo, hi := f.EffectiveTotalBounds()
	if lo > hi {
		return nil, fmt.Errorf("%w: empty effective total bounds (offer %s)", ErrInfeasible, f.ID)
	}
	switch {
	case total < lo:
		// Raise energies toward slice maxima, proportionally to headroom.
		need := lo - total
		var headroom float64
		for i, s := range f.Profile {
			headroom += s.MaxEnergy - out[i]
		}
		if headroom > 0 {
			scale := need / headroom
			if scale > 1 {
				scale = 1
			}
			for i, s := range f.Profile {
				out[i] += (s.MaxEnergy - out[i]) * scale
			}
		}
	case total > hi:
		// Lower energies toward slice minima, proportionally to slack.
		excess := total - hi
		var slack float64
		for i, s := range f.Profile {
			slack += out[i] - s.MinEnergy
		}
		if slack > 0 {
			scale := excess / slack
			if scale > 1 {
				scale = 1
			}
			for i, s := range f.Profile {
				out[i] -= (out[i] - s.MinEnergy) * scale
			}
		}
	}
	return out, nil
}

// AssignDefault schedules the offer at the given start with every slice at
// its average energy, adjusted (via FitEnergies) into the total-energy
// constraint when the offer carries one.
func (f *FlexOffer) AssignDefault(start time.Time) (*Assignment, error) {
	energies := make([]float64, len(f.Profile))
	for i, s := range f.Profile {
		energies[i] = s.AvgEnergy()
	}
	fitted, err := f.FitEnergies(energies)
	if err != nil {
		return nil, err
	}
	return f.Assign(start, fitted)
}

// TotalEnergy reports the total scheduled energy.
func (a *Assignment) TotalEnergy() float64 {
	var e float64
	for _, v := range a.Energies {
		e += v
	}
	return e
}

// Validate re-checks the assignment against its offer, for assignments
// deserialised or constructed directly.
func (a *Assignment) Validate() error {
	if a.Offer == nil {
		return fmt.Errorf("%w: assignment without offer", ErrInfeasible)
	}
	_, err := a.Offer.Assign(a.Start, a.Energies)
	return err
}

// ToSeries renders the assignment as an energy time series at the given
// resolution, starting at the assignment start. Each slice's energy is
// spread evenly over the intervals it covers; slice durations must be
// multiples of the resolution.
func (a *Assignment) ToSeries(resolution time.Duration) (*timeseries.Series, error) {
	if resolution <= 0 {
		return nil, fmt.Errorf("flexoffer: non-positive resolution %v", resolution)
	}
	var values []float64
	for i, s := range a.Offer.Profile {
		if s.Duration%resolution != 0 {
			return nil, fmt.Errorf("flexoffer: slice %d duration %v not a multiple of resolution %v",
				i, s.Duration, resolution)
		}
		n := int(s.Duration / resolution)
		share := a.Energies[i] / float64(n)
		for k := 0; k < n; k++ {
			values = append(values, share)
		}
	}
	return timeseries.New(a.Start, resolution, values)
}

// AddToSeries accumulates the assignment's energy into an existing series in
// place (e.g. to rebuild a load curve from scheduled offers). Intervals of
// the assignment falling outside the series extent are ignored; the amount
// actually added is returned.
func (a *Assignment) AddToSeries(dst *timeseries.Series) (float64, error) {
	rendered, err := a.ToSeries(dst.Resolution())
	if err != nil {
		return 0, err
	}
	var added float64
	for i := 0; i < rendered.Len(); i++ {
		idx, ok := dst.IndexOf(rendered.TimeAt(i))
		if !ok {
			continue
		}
		v := rendered.Value(i)
		dst.SetValue(idx, dst.Value(idx)+v)
		added += v
	}
	return added, nil
}
