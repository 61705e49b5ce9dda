package flexoffer

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/timeseries"
)

// Set is a collection of flex-offers with bulk helpers. Extraction returns
// Sets; aggregation and scheduling consume them.
type Set []*FlexOffer

// TotalAvgEnergy reports the summed average energy of all offers.
func (set Set) TotalAvgEnergy() float64 {
	var e float64
	for _, f := range set {
		e += f.TotalAvgEnergy()
	}
	return e
}

// Validate validates every offer, returning the first error.
func (set Set) Validate() error {
	for _, f := range set {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SortByEarliestStart orders the set by earliest start time (ties broken by
// ID) in place.
func (set Set) SortByEarliestStart() {
	sort.SliceStable(set, func(i, j int) bool {
		if !set[i].EarliestStart.Equal(set[j].EarliestStart) {
			return set[i].EarliestStart.Before(set[j].EarliestStart)
		}
		return set[i].ID < set[j].ID
	})
}

// PlacementSeries builds a series over [start, start+n*resolution) counting
// the average energy each offer would consume if started at its earliest
// start — the temporal placement profile of the set. It is the quantity the
// paper plots in Fig. 4 and the basis of the realism metrics (where in the
// day extraction places flexibility).
func (set Set) PlacementSeries(start time.Time, resolution time.Duration, n int) (*timeseries.Series, error) {
	dst, err := timeseries.Zeros(start, resolution, n)
	if err != nil {
		return nil, err
	}
	for _, f := range set {
		a, err := f.AssignDefault(f.EarliestStart)
		if err != nil {
			return nil, fmt.Errorf("flexoffer: placement of %s: %w", f.ID, err)
		}
		if _, err := a.AddToSeries(dst); err != nil {
			return nil, fmt.Errorf("flexoffer: placement of %s: %w", f.ID, err)
		}
	}
	return dst, nil
}

// WriteJSON writes the set as a JSON array.
func (set Set) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(set)
}

// ReadJSON parses a set written by WriteJSON and validates every offer.
func ReadJSON(r io.Reader) (Set, error) {
	var set Set
	if err := json.NewDecoder(r).Decode(&set); err != nil {
		return nil, fmt.Errorf("flexoffer: decode set: %w", err)
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}
