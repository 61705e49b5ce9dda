package core

import (
	"repro/internal/flexoffer"
	"repro/internal/timeseries"
)

// RandomExtractor is the baseline the paper criticises (§1): it "assumes
// that consumption at every moment of a day is potentially flexible" and
// dispatches flex-offers uniformly within the day, ignoring where the
// consumption actually is. MIRABEL used this strategy before the extraction
// tools existed; the realism experiments (E10) compare every extractor
// against it.
//
// It extracts one offer a day, for comparability with the peak-based
// approach.
type RandomExtractor struct {
	Params Params
}

// Name implements Extractor.
func (e *RandomExtractor) Name() string { return "random" }

// Extract implements Extractor.
func (e *RandomExtractor) Extract(input *timeseries.Series) (*Result, error) {
	p := e.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkInput(input, p); err != nil {
		return nil, err
	}
	modified := input.Clone()
	b := newOfferBuilder(e.Name(), p)
	var offers flexoffer.Set

	for _, day := range input.Days() {
		dayOffset, ok := input.IndexOf(day.Start())
		if !ok {
			continue
		}
		flexEnergy := p.FlexPercentage * day.Total()
		if flexEnergy <= 0 {
			continue
		}
		n := b.sliceCount()
		if n > day.Len() {
			n = day.Len()
		}
		// Uniformly random placement in the day — flexibility assumed
		// everywhere, the very assumption the paper calls "very likely
		// being false".
		start := dayOffset + b.rng.Intn(day.Len()-n+1)
		energies := make([]float64, n)
		for i := range energies {
			energies[i] = flexEnergy / float64(n)
		}
		offer, err := b.build(input.TimeAt(start), energies, "")
		if err != nil {
			return nil, err
		}
		offers = append(offers, offer)
		// The day's flexible energy leaves the day uniformly.
		subtractProportional(modified, dayOffset, dayOffset+day.Len(), flexEnergy)
	}
	return &Result{Offers: offers, Modified: modified}, nil
}

var _ Extractor = (*RandomExtractor)(nil)
