package core

import (
	"fmt"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/timeseries"
)

// BasicExtractor implements the basic approach (§3.1): the input is divided
// into periods of a few hours, a configurable percentage of each period's
// consumption is deemed flexible, and one flex-offer is extracted per
// period, with randomised attributes.
//
// Context assumption: at any given time of day, some of the household
// consumption is flexible.
type BasicExtractor struct {
	// Params is the shared context information.
	Params Params
}

// basicPeriod is the length of each extraction period: 6 hours, which
// yields the four offers per day shown in Fig. 4.
const basicPeriod = 6 * time.Hour

// Name implements Extractor.
func (e *BasicExtractor) Name() string { return "basic" }

// Extract implements Extractor. The per-period scan runs once per slice of
// every ingested series; TestBasicExtractAllocations holds it to no
// allocation per slice and a few per offer.
func (e *BasicExtractor) Extract(input *timeseries.Series) (*Result, error) {
	p := e.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkInput(input, p); err != nil {
		return nil, err
	}
	if basicPeriod < p.SliceDuration || basicPeriod%p.SliceDuration != 0 {
		return nil, fmt.Errorf("%w: period %v not a multiple of slice duration %v", ErrParams, basicPeriod, p.SliceDuration)
	}
	perPeriod := int(basicPeriod / p.SliceDuration)

	modified := input.Clone()
	b := newOfferBuilder(e.Name(), p)
	// One offer per period at most: size the set to the period count.
	offers := make(flexoffer.Set, 0, (input.Len()+perPeriod-1)/perPeriod)

	for from := 0; from < input.Len(); from += perPeriod {
		to := from + perPeriod
		if to > input.Len() {
			to = input.Len()
		}
		var periodEnergy float64
		for i := from; i < to; i++ {
			periodEnergy += input.Value(i)
		}
		flexEnergy := p.FlexPercentage * periodEnergy
		if flexEnergy <= 0 {
			continue
		}

		// Profile length, bounded by the period.
		n := b.sliceCount()
		if n > to-from {
			n = to - from
		}
		// Place the profile at a random offset inside the period; the
		// flexible energy is spread over the profile following the
		// period's own consumption shape at that offset, so extracted
		// offers inherit realistic intra-profile structure.
		maxOffset := (to - from) - n
		offset := 0
		if maxOffset > 0 {
			offset = b.rng.Intn(maxOffset + 1)
		}
		start := from + offset
		shape := windowEnergies(input, start, start+n)
		var shapeSum float64
		for _, v := range shape {
			shapeSum += v
		}
		energies := make([]float64, n)
		for i := range energies {
			if shapeSum > 0 {
				energies[i] = flexEnergy * shape[i] / shapeSum
			} else {
				energies[i] = flexEnergy / float64(n)
			}
		}

		offer, err := b.build(input.TimeAt(start), energies, "")
		if err != nil {
			return nil, err
		}
		offers = append(offers, offer)
		// The offer's energy leaves the period (pro-rata across the whole
		// period, mirroring "the fraction of flexibility within each
		// period").
		subtractProportional(modified, from, to, flexEnergy)
	}
	return &Result{Offers: offers, Modified: modified}, nil
}
