// Package appliance models the fine-grained appliance knowledge base the
// appliance-level extraction approaches rely on (Table 1 of the paper):
// per-appliance energy consumption ranges and energy profiles with min/max
// bands at sub-15-minute granularity, plus the usage metadata (frequency,
// time flexibility, preferred hours) that the frequency- and schedule-based
// extractors consume.
package appliance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/num"
)

// Category groups appliances by their role in the household.
type Category int

const (
	// Wet covers washing machines, dishwashers, dryers.
	Wet Category = iota
	// Cleaning covers vacuum robots and similar.
	Cleaning
	// Vehicle covers electric-vehicle charging.
	Vehicle
	// Kitchen covers ovens, stoves, kettles.
	Kitchen
	// Cold covers refrigeration (continuously cycling, inflexible).
	Cold
	// Entertainment covers TV and electronics.
	Entertainment
	// Heating covers water heaters and heat pumps.
	Heating
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Wet:
		return "wet"
	case Cleaning:
		return "cleaning"
	case Vehicle:
		return "vehicle"
	case Kitchen:
		return "kitchen"
	case Cold:
		return "cold"
	case Entertainment:
		return "entertainment"
	case Heating:
		return "heating"
	default:
		return "unknown"
	}
}

// Band bounds the energy an appliance may draw during one minute of a run,
// in kWh. Table 1 calls for "energy profiles with min and max ranges for
// every time stamp".
type Band struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// ErrInvalid is wrapped by all Appliance validation failures.
var ErrInvalid = errors.New("appliance: invalid specification")

// Appliance is one manufactured appliance model. Profile granularity is
// fixed at one minute ("granularity must be even smaller than 15 min").
type Appliance struct {
	// Name identifies the appliance model, e.g. "washing machine Y".
	Name string `json:"name"`
	// Manufacturer is informational.
	Manufacturer string   `json:"manufacturer"`
	Category     Category `json:"category"`

	// MinRunEnergy and MaxRunEnergy bound the total energy of a single run
	// (Table 1's "Energy Consumption Range").
	MinRunEnergy float64 `json:"min_run_energy_kwh"`
	MaxRunEnergy float64 `json:"max_run_energy_kwh"`

	// Envelope holds the per-minute min/max energy band over a run; its
	// length defines the run duration in minutes.
	Envelope []Band `json:"envelope"`

	// Flexible marks appliances whose usage can be shifted in time (washing
	// machine, dishwasher, EV, robot) as opposed to on-demand ones (TV,
	// oven) or continuous ones (fridge).
	Flexible bool `json:"flexible"`
	// RunsPerDay is the average usage frequency (e.g. 1.0 for a daily
	// vacuum robot, 0.5 for an every-other-day dishwasher).
	RunsPerDay float64 `json:"runs_per_day"`
	// TimeFlexibility is how far a flexible run can be shifted (the paper's
	// Roomba example: 22 hours — charged before the next daily usage).
	TimeFlexibility time.Duration `json:"time_flexibility"`
	// HourWeights gives the relative propensity of a run starting in each
	// hour of day; all zeros means uniform.
	HourWeights [24]float64 `json:"hour_weights"`
	// WeekendFactor multiplies RunsPerDay on weekends (e.g. the paper's
	// dishwasher used more on weekends, §4.2).
	WeekendFactor float64 `json:"weekend_factor"`
}

// RunDuration reports the duration of one run.
func (a *Appliance) RunDuration() time.Duration {
	return time.Duration(len(a.Envelope)) * time.Minute
}

// Validate checks internal consistency of the specification.
func (a *Appliance) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalid)
	}
	if len(a.Envelope) == 0 {
		return fmt.Errorf("%w: %s has empty envelope", ErrInvalid, a.Name)
	}
	if a.MinRunEnergy < 0 || a.MaxRunEnergy < a.MinRunEnergy {
		return fmt.Errorf("%w: %s run energy range [%v, %v]", ErrInvalid, a.Name, a.MinRunEnergy, a.MaxRunEnergy)
	}
	var envMin, envMax float64
	for i, b := range a.Envelope {
		if b.Min < 0 || b.Max < b.Min {
			return fmt.Errorf("%w: %s envelope minute %d band [%v, %v]", ErrInvalid, a.Name, i, b.Min, b.Max)
		}
		envMin += b.Min
		envMax += b.Max
	}
	// The run-energy range must be achievable within the envelope.
	if a.MinRunEnergy < envMin-num.DefaultTol || a.MaxRunEnergy > envMax+num.DefaultTol {
		return fmt.Errorf("%w: %s run range [%v, %v] outside envelope range [%v, %v]",
			ErrInvalid, a.Name, a.MinRunEnergy, a.MaxRunEnergy, envMin, envMax)
	}
	if a.RunsPerDay < 0 {
		return fmt.Errorf("%w: %s negative frequency", ErrInvalid, a.Name)
	}
	if a.TimeFlexibility < 0 {
		return fmt.Errorf("%w: %s negative time flexibility", ErrInvalid, a.Name)
	}
	return nil
}

// NominalProfile reports the per-minute midpoint of the envelope — the
// appliance's canonical signature shape used for matching during
// disaggregation.
func (a *Appliance) NominalProfile() []float64 {
	p := make([]float64, len(a.Envelope))
	for i, b := range a.Envelope {
		p[i] = (b.Min + b.Max) / 2
	}
	return p
}

// NominalEnergy reports the total energy of the nominal profile.
func (a *Appliance) NominalEnergy() float64 {
	var e float64
	for _, b := range a.Envelope {
		e += (b.Min + b.Max) / 2
	}
	return e
}

// SignatureAt downsamples the nominal profile to the given resolution,
// summing per-minute energies into coarser buckets. The resolution must be
// a whole number of minutes. A trailing partial bucket is kept.
func (a *Appliance) SignatureAt(resolution time.Duration) ([]float64, error) {
	if resolution < time.Minute || resolution%time.Minute != 0 {
		return nil, fmt.Errorf("appliance: signature resolution %v must be a positive whole number of minutes", resolution)
	}
	per := int(resolution / time.Minute)
	nom := a.NominalProfile()
	n := (len(nom) + per - 1) / per
	out := make([]float64, n)
	for i, v := range nom {
		out[i/per] += v
	}
	return out, nil
}

// SampleRun draws one run realisation: a total energy uniform in
// [MinRunEnergy, MaxRunEnergy] distributed over the envelope. The shape
// follows the nominal profile scaled toward the feasible band, so every
// minute stays within [Min, Max] and the minutes sum to the drawn energy.
func (a *Appliance) SampleRun(rng *rand.Rand) []float64 {
	target := a.MinRunEnergy + rng.Float64()*(a.MaxRunEnergy-a.MinRunEnergy)
	return a.runWithEnergy(target)
}

// runWithEnergy distributes total energy over the envelope. The energy is
// clamped into the envelope's feasible total range. Within the range, each
// minute interpolates linearly between its band bounds by the same fraction,
// which keeps the shape inside the envelope exactly.
func (a *Appliance) runWithEnergy(total float64) []float64 {
	var envMin, envMax float64
	for _, b := range a.Envelope {
		envMin += b.Min
		envMax += b.Max
	}
	if total < envMin {
		total = envMin
	}
	if total > envMax {
		total = envMax
	}
	frac := 0.0
	if envMax > envMin {
		frac = (total - envMin) / (envMax - envMin)
	}
	out := make([]float64, len(a.Envelope))
	for i, b := range a.Envelope {
		out[i] = b.Min + frac*(b.Max-b.Min)
	}
	return out
}

// SampleStartHour draws a start hour according to HourWeights, falling back
// to uniform when all weights are zero.
func (a *Appliance) SampleStartHour(rng *rand.Rand) int {
	var total float64
	for _, w := range a.HourWeights {
		total += w
	}
	if total <= 0 {
		return rng.Intn(24)
	}
	x := rng.Float64() * total
	for h, w := range a.HourWeights {
		x -= w
		if x < 0 {
			return h
		}
	}
	return 23
}

// ShapedEnvelope builds an envelope of len(shape) minutes whose nominal
// per-minute energies follow shape (normalised to sum to nominalKWh), each
// minute with a +-spread band. Negative shape entries are treated as zero.
func ShapedEnvelope(shape []float64, nominalKWh, spread float64) []Band {
	var sum float64
	for _, s := range shape {
		if s > 0 {
			sum += s
		}
	}
	env := make([]Band, len(shape))
	for i, s := range shape {
		if s < 0 {
			s = 0
		}
		per := nominalKWh * s / math.Max(sum, 1e-12)
		env[i] = Band{Min: per * (1 - spread), Max: per * (1 + spread)}
	}
	return env
}
