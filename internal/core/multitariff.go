package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/tariff"
	"repro/internal/timeseries"
)

// MultiTariffExtractor implements the multi-tariff approach (§3.3).
//
// Context assumption: consumers change their behaviour when a multi-tariff
// (variable-rate) scheme is introduced — they delay flexible usage into the
// low-tariff window. The extractor therefore (1) estimates the consumer's
// usual consumption from the one-tariff reference series (typical per-phase
// profile, split by day type) and (2) flags consumption in the multi-tariff
// series that exceeds that usual profile *inside low-tariff periods* as
// delayed — hence flexible — demand.
//
// The paper could not evaluate this approach for lack of paired data; the
// household simulator's tariff-response behaviour supplies it here (see
// DESIGN.md, substitution table).
type MultiTariffExtractor struct {
	Params Params
	// Tariff is the multi-tariff scheme in effect during the second
	// series.
	Tariff tariff.TimeOfUse
	// MinOfferEnergy discards contiguous excess runs carrying less energy
	// than this, filtering profile-estimation noise. Default 0.25 kWh.
	MinOfferEnergy float64
}

// Name implements Extractor.
func (e *MultiTariffExtractor) Name() string { return "multi-tariff" }

// Extract implements Extractor by treating input as the multi-tariff series
// and requiring a reference set beforehand via ExtractPair. It exists so
// MultiTariffExtractor still satisfies the Extractor interface; calling it
// without a reference is an error.
func (e *MultiTariffExtractor) Extract(input *timeseries.Series) (*Result, error) {
	return nil, fmt.Errorf("%w: multi-tariff extraction needs a one-tariff reference series; use ExtractPair", ErrInput)
}

// ExtractPair performs the extraction: oneTariff is the historical series
// under flat billing (used only as a reference and returned unchanged),
// multiTariff is the series under the multi-tariff scheme, from which
// flexibility is extracted.
func (e *MultiTariffExtractor) ExtractPair(oneTariff, multiTariff *timeseries.Series) (*Result, error) {
	p := e.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkInput(oneTariff, p); err != nil {
		return nil, fmt.Errorf("one-tariff reference: %w", err)
	}
	if err := checkInput(multiTariff, p); err != nil {
		return nil, fmt.Errorf("multi-tariff series: %w", err)
	}
	minEnergy := e.MinOfferEnergy
	if minEnergy <= 0 {
		minEnergy = 0.25
	}
	perDay := oneTariff.IntervalsPerDay()
	if perDay == 0 {
		return nil, fmt.Errorf("%w: resolution does not divide a day", ErrInput)
	}
	// Typical profiles are phased by time of day; both series must start on
	// a midnight boundary for the per-phase statistics to be meaningful.
	for _, s := range []*timeseries.Series{oneTariff, multiTariff} {
		if !s.Start().Equal(timeseries.TruncateDay(s.Start())) {
			return nil, fmt.Errorf("%w: series must start at midnight (got %v)", ErrInput, s.Start())
		}
	}

	// Step 1: usual consumption per day type and interval-of-day, from the
	// one-tariff period ("typical behavior during the work days,
	// weekends").
	typical, err := typicalByDayType(oneTariff, perDay)
	if err != nil {
		return nil, err
	}

	// Step 2: excess over usual inside low-tariff periods is delayed
	// flexible consumption.
	modified := multiTariff.Clone()
	b := newOfferBuilder(e.Name(), p)
	var offers flexoffer.Set

	n := multiTariff.Len()
	excess := make([]float64, n)
	for i := 0; i < n; i++ {
		t := multiTariff.TimeAt(i)
		if !e.Tariff.IsLow(t) {
			continue
		}
		// The day-phase comes from the timestamp, not the array index, so
		// series that do not start at midnight stay aligned with the
		// typical profile.
		phase := int(t.Sub(timeseries.TruncateDay(t)) / multiTariff.Resolution())
		if phase >= perDay {
			phase = perDay - 1
		}
		exp := typical.at(t, phase)
		if d := multiTariff.Value(i) - exp; d > 0 {
			excess[i] = d
		}
	}

	// Group contiguous excess runs into offers.
	i := 0
	for i < n {
		if excess[i] <= 0 {
			i++
			continue
		}
		j := i
		var runEnergy float64
		for j < n && excess[j] > 0 {
			runEnergy += excess[j]
			j++
		}
		if runEnergy >= minEnergy {
			// Cap the profile at the configured length; keep the
			// highest-energy prefix alignment simple: truncate the tail.
			m := j - i
			if limit := b.sliceCount(); m > limit {
				m = limit
			}
			energies := make([]float64, m)
			var used float64
			for k := 0; k < m; k++ {
				energies[k] = excess[i+k]
				used += excess[i+k]
			}
			offer, err := b.build(multiTariff.TimeAt(i), energies, "")
			if err != nil {
				return nil, err
			}
			offers = append(offers, offer)
			for k := 0; k < m; k++ {
				modified.SetValue(i+k, modified.Value(i+k)-excess[i+k])
			}
		}
		i = j
	}
	return &Result{Offers: offers, Modified: modified}, nil
}

// dayTypeProfiles holds the per-phase typical consumption split by day
// type, with a combined fallback when a day type is absent from the
// reference period.
type dayTypeProfiles struct {
	byType   map[timeseries.DayType][]float64
	fallback []float64
}

func (d *dayTypeProfiles) at(t time.Time, phase int) float64 {
	if prof, ok := d.byType[timeseries.DayTypeOf(t)]; ok {
		if v := prof[phase]; !math.IsNaN(v) {
			return v
		}
	}
	if v := d.fallback[phase]; !math.IsNaN(v) {
		return v
	}
	return 0
}

// typicalByDayType estimates the median per-phase daily profile separately
// for workdays and weekends. The median is robust against the occasional
// flexible runs present in the reference period itself.
func typicalByDayType(s *timeseries.Series, perDay int) (*dayTypeProfiles, error) {
	fallback, err := timeseries.MedianProfile(s, perDay)
	if err != nil {
		return nil, err
	}
	out := &dayTypeProfiles{byType: make(map[timeseries.DayType][]float64), fallback: fallback}
	for dt, days := range s.DaysByType() {
		// Concatenate whole days of this type and take the per-phase
		// median. Partial edge days are skipped to keep phases aligned.
		var vals []float64
		for _, day := range days {
			if day.Len() == perDay {
				vals = append(vals, day.Values()...)
			}
		}
		if len(vals) == 0 {
			continue
		}
		concat, err := timeseries.New(s.Start(), s.Resolution(), vals)
		if err != nil {
			return nil, err
		}
		prof, err := timeseries.MedianProfile(concat, perDay)
		if err != nil {
			return nil, err
		}
		out.byType[dt] = prof
	}
	return out, nil
}
