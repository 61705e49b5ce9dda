// Package core implements the paper's contribution: the flexibility
// extraction framework (Fig. 2) and the five extraction approaches of its
// taxonomy (Fig. 3) — basic, peak-based and multi-tariff at the total
// household consumption level, frequency-based and schedule-based at the
// appliance level — plus the random-generation baseline the paper sets out
// to replace.
//
// Every extractor consumes a historical consumption time series together
// with context information (Params) and produces flex-offers plus the
// modified time series with the extracted flexible energy subtracted, so
// that
//
//	modified total + Σ offer average energy == input total
//
// holds for every approach (energy accounting).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/timeseries"
)

// Common errors.
var (
	ErrParams = errors.New("core: invalid parameters")
	ErrInput  = errors.New("core: invalid input series")
)

// Params is the "context information" of Fig. 2: the share of demand deemed
// flexible plus the flex-offer attribute parameters, all randomised within
// controlled variation limits to produce non-uniform offers (§3.1).
type Params struct {
	// ConsumerID stamps extracted offers.
	ConsumerID string

	// FlexPercentage is the share of consumption considered flexible
	// (the paper quotes 0.1–6.5 % for real series [7]; its Fig. 5
	// walkthrough uses 5 %).
	FlexPercentage float64

	// SliceDuration is the profile interval length (MIRABEL: 15 min).
	SliceDuration time.Duration
	// SlicesPerOffer is the nominal profile length in slices; the actual
	// count varies by ±SliceJitter.
	SlicesPerOffer int
	// SliceJitter is the maximum random deviation of the slice count.
	SliceJitter int

	// EnergySpreadMin/Max bound the relative half-width of each slice's
	// [min, max] energy band around its average (energy flexibility).
	EnergySpreadMin float64
	EnergySpreadMax float64

	// TimeFlexibility is the nominal latest-start minus earliest-start;
	// the actual value varies by ±TimeFlexJitter.
	TimeFlexibility time.Duration
	TimeFlexJitter  time.Duration

	// CreationLead, AcceptanceLead and AssignmentLead position the
	// lifecycle timestamps before the earliest start time.
	CreationLead   time.Duration
	AcceptanceLead time.Duration
	AssignmentLead time.Duration

	// Seed drives all randomisation.
	Seed int64
}

// DefaultParams returns the parameter set used across the experiments:
// 15-minute slices, two-hour profiles, 5 % flexible share (the Fig. 5
// value), four hours of time flexibility.
func DefaultParams() Params {
	return Params{
		FlexPercentage:  0.05,
		SliceDuration:   15 * time.Minute,
		SlicesPerOffer:  8,
		SliceJitter:     2,
		EnergySpreadMin: 0.1,
		EnergySpreadMax: 0.3,
		TimeFlexibility: 4 * time.Hour,
		TimeFlexJitter:  time.Hour,
		CreationLead:    12 * time.Hour,
		AcceptanceLead:  6 * time.Hour,
		AssignmentLead:  2 * time.Hour,
	}
}

// Validate checks parameter consistency. NaN in any float field is
// rejected explicitly: NaN fails every ordered comparison, so without
// these checks a NaN FlexPercentage or energy spread would sail through
// the range checks and surface later as NaN offer energies deep inside a
// pipeline worker.
func (p Params) Validate() error {
	if math.IsNaN(p.FlexPercentage) || p.FlexPercentage <= 0 || p.FlexPercentage >= 1 {
		return fmt.Errorf("%w: flex percentage %v outside (0, 1)", ErrParams, p.FlexPercentage)
	}
	if p.SliceDuration <= 0 || (24*time.Hour)%p.SliceDuration != 0 {
		return fmt.Errorf("%w: slice duration %v must divide 24h", ErrParams, p.SliceDuration)
	}
	// maxSlices bounds the profile length (a 15-minute profile of 10000
	// slices already spans 100 days); beyond any sane value, and large
	// enough that the bound never bites real configurations. It also keeps
	// 2*SliceJitter+1 far from integer overflow in the jitter draw.
	const maxSlices = 10000
	if p.SlicesPerOffer < 1 || p.SlicesPerOffer > maxSlices {
		return fmt.Errorf("%w: slices per offer %d outside [1, %d]", ErrParams, p.SlicesPerOffer, maxSlices)
	}
	if p.SliceJitter < 0 || p.SliceJitter >= p.SlicesPerOffer {
		return fmt.Errorf("%w: slice jitter %d for %d slices", ErrParams, p.SliceJitter, p.SlicesPerOffer)
	}
	if math.IsNaN(p.EnergySpreadMin) || math.IsNaN(p.EnergySpreadMax) ||
		p.EnergySpreadMin < 0 || p.EnergySpreadMax < p.EnergySpreadMin || p.EnergySpreadMax >= 1 {
		return fmt.Errorf("%w: energy spread [%v, %v]", ErrParams, p.EnergySpreadMin, p.EnergySpreadMax)
	}
	// maxHorizon bounds every open-ended duration to a year. Offers live on
	// day-to-week scales; durations near the int64 limit would overflow the
	// jitter draw (2*TimeFlexJitter) and timestamp arithmetic.
	const maxHorizon = 366 * 24 * time.Hour
	if p.TimeFlexibility < 0 || p.TimeFlexibility > maxHorizon ||
		p.TimeFlexJitter < 0 || p.TimeFlexJitter > p.TimeFlexibility {
		return fmt.Errorf("%w: time flexibility %v jitter %v", ErrParams, p.TimeFlexibility, p.TimeFlexJitter)
	}
	if p.CreationLead < p.AcceptanceLead || p.AcceptanceLead < p.AssignmentLead || p.AssignmentLead < 0 ||
		p.CreationLead > maxHorizon {
		return fmt.Errorf("%w: lifecycle leads must satisfy %v >= creation >= acceptance >= assignment >= 0",
			ErrParams, maxHorizon)
	}
	return nil
}

// Result is the Fig. 2 output: flex-offers plus the modified time series
// (input minus the flexible energy now carried by the offers).
type Result struct {
	Offers   flexoffer.Set
	Modified *timeseries.Series
}

// Extractor is one flexibility extraction approach operating on a total
// household consumption series.
type Extractor interface {
	// Name identifies the approach (taxonomy leaf of Fig. 3).
	Name() string
	// Extract decomposes the series into flex-offers and a modified
	// series.
	Extract(input *timeseries.Series) (*Result, error)
}

// Approach returns the constructor of a consumption-level approach that
// needs nothing beyond Params, by its Name: "basic", "peak" or "random"
// (the baseline). The commands that take an approach name all map it
// here, so they accept the same names and word the same error.
func Approach(name string) (func(Params) Extractor, error) {
	switch name {
	case "basic":
		return func(p Params) Extractor { return &BasicExtractor{Params: p} }, nil
	case "peak":
		return func(p Params) Extractor { return &PeakExtractor{Params: p} }, nil
	case "random":
		return func(p Params) Extractor { return &RandomExtractor{Params: p} }, nil
	default:
		return nil, fmt.Errorf("core: unknown approach %q", name)
	}
}

// checkInput validates a consumption series for extraction.
func checkInput(s *timeseries.Series, p Params) error {
	if s == nil || s.Len() == 0 {
		return fmt.Errorf("%w: empty series", ErrInput)
	}
	if s.Resolution() != p.SliceDuration {
		return fmt.Errorf("%w: series resolution %v != slice duration %v (resample first)",
			ErrInput, s.Resolution(), p.SliceDuration)
	}
	if s.CountMissing() > 0 {
		return fmt.Errorf("%w: %d missing values (every interval needs a reading)", ErrInput, s.CountMissing())
	}
	for i := 0; i < s.Len(); i++ {
		if s.Value(i) < 0 {
			return fmt.Errorf("%w: negative consumption %v at interval %d", ErrInput, s.Value(i), i)
		}
	}
	return nil
}

// offerBuilder stamps sequential IDs and lifecycle timestamps onto offers.
type offerBuilder struct {
	params Params
	name   string
	rng    *rand.Rand
	seq    int
}

func newOfferBuilder(name string, p Params) *offerBuilder {
	return &offerBuilder{params: p, name: name, rng: rand.New(rand.NewSource(p.Seed))}
}

// build creates a validated flex-offer whose slice averages equal the given
// energies, with a randomised symmetric energy band around each (so the
// offer's total average energy equals exactly sum(energies)), a randomised
// time-flexibility window derived from the params, and lifecycle
// timestamps.
func (b *offerBuilder) build(earliest time.Time, energies []float64, applianceName string) (*flexoffer.FlexOffer, error) {
	p := b.params
	tf := p.TimeFlexibility
	if p.TimeFlexJitter > 0 {
		tf += time.Duration(b.rng.Int63n(int64(2*p.TimeFlexJitter))) - p.TimeFlexJitter
	}
	if tf < 0 {
		tf = 0
	}
	return b.buildWithFlex(earliest, energies, applianceName, tf)
}

// buildWithFlex is build with an explicit time flexibility, used by the
// appliance-level extractors where the flexibility comes from the appliance
// specification (e.g. the robot's 22 hours) rather than the shared params.
func (b *offerBuilder) buildWithFlex(earliest time.Time, energies []float64, applianceName string, tf time.Duration) (*flexoffer.FlexOffer, error) {
	if len(energies) == 0 {
		return nil, fmt.Errorf("%w: offer with no slices", ErrParams)
	}
	p := b.params
	profile := make([]flexoffer.Slice, len(energies))
	for i, e := range energies {
		spread := p.EnergySpreadMin + b.rng.Float64()*(p.EnergySpreadMax-p.EnergySpreadMin)
		profile[i] = flexoffer.Slice{
			Duration:  p.SliceDuration,
			MinEnergy: e * (1 - spread),
			MaxEnergy: e * (1 + spread),
		}
	}
	b.seq++
	f := &flexoffer.FlexOffer{
		ID:             fmt.Sprintf("%s-%04d", b.name, b.seq),
		ConsumerID:     p.ConsumerID,
		Appliance:      applianceName,
		CreationTime:   earliest.Add(-p.CreationLead),
		AcceptanceTime: earliest.Add(-p.AcceptanceLead),
		AssignmentTime: earliest.Add(-p.AssignmentLead),
		EarliestStart:  earliest,
		LatestStart:    earliest.Add(tf),
		Profile:        profile,
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// sliceCount draws the randomised profile length.
func (b *offerBuilder) sliceCount() int {
	n := b.params.SlicesPerOffer
	if b.params.SliceJitter > 0 {
		n += b.rng.Intn(2*b.params.SliceJitter+1) - b.params.SliceJitter
	}
	if n < 1 {
		n = 1
	}
	return n
}

// subtractProportional removes `amount` of energy from intervals [from, to)
// of s in place, pro-rata to each interval's share of the window's energy.
// It returns the amount actually removed (less than requested only when the
// window holds less energy than requested).
func subtractProportional(s *timeseries.Series, from, to int, amount float64) float64 {
	var window float64
	for i := from; i < to; i++ {
		window += s.Value(i)
	}
	if window <= 0 || amount <= 0 {
		return 0
	}
	if amount > window {
		amount = window
	}
	for i := from; i < to; i++ {
		v := s.Value(i)
		s.SetValue(i, v-amount*v/window)
	}
	return amount
}

// windowEnergies extracts the per-interval energies of [from, to).
func windowEnergies(s *timeseries.Series, from, to int) []float64 {
	out := make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, s.Value(i))
	}
	return out
}
