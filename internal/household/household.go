// Package household synthesises household electricity consumption time
// series. It stands in for the real-world MIRABEL trial data the paper
// extracts flexibilities from: total consumption is composed of an
// always-on base load with morning/evening peaks plus stochastic appliance
// runs drawn from the appliance registry. Because the simulator knows which
// appliance ran when, it also emits the ground-truth activations — which
// real data never provides — so extraction quality can be measured
// (precision/recall), closing the "actual quality of the output is not
// known" gap the paper points out in §3.1.
package household

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/appliance"
	"repro/internal/tariff"
	"repro/internal/timeseries"
)

// Activation is one ground-truth appliance run.
type Activation struct {
	// Appliance names the registry entry that ran.
	Appliance string
	// Start is the actual (possibly tariff-shifted) start time.
	Start time.Time
	// PlannedStart is the start before any tariff response.
	PlannedStart time.Time
	// Duration of the run.
	Duration time.Duration
	// Energy actually consumed by the run, in kWh.
	Energy float64
	// Flexible mirrors the appliance's flexibility flag.
	Flexible bool
	// Shifted reports whether the tariff response moved the run.
	Shifted bool
}

// Config describes one simulated household.
type Config struct {
	// ID identifies the household (used as flex-offer ConsumerID).
	ID string
	// Residents scales the base load.
	Residents int
	// Appliances lists registry names owned by the household.
	Appliances []string
	// BaseLoadKW is the average always-on power in kW.
	BaseLoadKW float64
	// MorningPeak and EveningPeak scale the base-load bumps around
	// 07:00 and 19:00 (0 disables a bump).
	MorningPeak float64
	EveningPeak float64
	// NoiseStd is the relative (multiplicative) noise on the base load.
	NoiseStd float64
	// SeasonalAmplitude modulates the base load over the year (fraction,
	// e.g. 0.3 for ±30 %), peaking in January and bottoming in July —
	// the "different seasons of the year" dimension the multi-tariff
	// extraction's typical-profile estimation has to cope with (§3.3).
	SeasonalAmplitude float64
	// Tariff is the billing scheme in effect; nil means flat billing.
	Tariff tariff.Tariff
	// Response is the consumer's tariff-shifting behaviour.
	Response tariff.Response
	// Seed drives all randomness for the household.
	Seed int64
}

// Result is the output of one simulation.
type Result struct {
	// Config echoes the simulated configuration.
	Config Config
	// Total is the household consumption series at the requested
	// resolution.
	Total *timeseries.Series
	// PerAppliance holds each appliance's contribution, aligned with
	// Total.
	PerAppliance map[string]*timeseries.Series
	// Base is the non-appliance (inflexible background) contribution.
	Base *timeseries.Series
	// Activations is the ground truth, ordered by start time.
	Activations []Activation
}

// ErrConfig is wrapped by configuration errors.
var ErrConfig = errors.New("household: invalid config")

// FlexibleEnergy reports the total ground-truth energy of flexible
// activations.
func (r *Result) FlexibleEnergy() float64 {
	var e float64
	for _, a := range r.Activations {
		if a.Flexible {
			e += a.Energy
		}
	}
	return e
}

// FlexibleShare reports the fraction of total consumption that is
// ground-truth flexible — comparable with the 0.1–6.5 % band the paper
// quotes from the MIRABEL trial specification [7].
func (r *Result) FlexibleShare() float64 {
	total := r.Total.Total()
	if total <= 0 {
		return 0
	}
	return r.FlexibleEnergy() / total
}

// Simulate synthesises `days` days of consumption starting at midnight of
// start's day, internally at 1-minute granularity, returned at the given
// resolution (which must divide 24 h and be a whole number of minutes).
func Simulate(reg *appliance.Registry, cfg Config, start time.Time, days int, resolution time.Duration) (*Result, error) {
	if days <= 0 {
		return nil, fmt.Errorf("%w: days %d", ErrConfig, days)
	}
	if resolution < time.Minute || resolution%time.Minute != 0 || (24*time.Hour)%resolution != 0 {
		return nil, fmt.Errorf("%w: resolution %v must be whole minutes dividing 24h", ErrConfig, resolution)
	}
	if cfg.BaseLoadKW < 0 || cfg.NoiseStd < 0 {
		return nil, fmt.Errorf("%w: negative base load or noise", ErrConfig)
	}
	apps := make([]*appliance.Appliance, 0, len(cfg.Appliances))
	for _, name := range cfg.Appliances {
		a, ok := reg.Get(name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown appliance %q", ErrConfig, name)
		}
		apps = append(apps, a)
	}
	tr := cfg.Tariff
	if tr == nil {
		tr = tariff.Flat{Price: 0.30}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	day0 := timeseries.TruncateDay(start)
	minutes := days * 24 * 60
	base := make([]float64, minutes)
	perApp := make(map[string][]float64, len(apps))
	for _, a := range apps {
		perApp[a.Name] = make([]float64, minutes)
	}

	// Base load: kWh per minute with a daily shape, an annual seasonal
	// factor and multiplicative noise.
	residentFactor := 1 + 0.25*float64(max(cfg.Residents, 1)-1)
	perMinute := cfg.BaseLoadKW / 60 * residentFactor
	for m := 0; m < minutes; m++ {
		hour := float64(m%1440) / 60
		shape := 1 + cfg.MorningPeak*gauss(hour, 7, 1.5) + cfg.EveningPeak*gauss(hour, 19, 2.5)
		seasonal := 1.0
		if cfg.SeasonalAmplitude != 0 {
			doy := day0.Add(time.Duration(m) * time.Minute).YearDay()
			// Cosine over the year: maximum near Jan 1, minimum near Jul 1.
			seasonal = 1 + cfg.SeasonalAmplitude*math.Cos(2*math.Pi*float64(doy-1)/365)
			if seasonal < 0 {
				seasonal = 0
			}
		}
		noise := 1 + cfg.NoiseStd*rng.NormFloat64()
		if noise < 0 {
			noise = 0
		}
		base[m] = perMinute * shape * seasonal * noise
	}

	// Appliance runs.
	var activations []Activation
	horizonEnd := day0.Add(time.Duration(minutes) * time.Minute)
	for d := 0; d < days; d++ {
		dayStart := day0.Add(time.Duration(d) * 24 * time.Hour)
		isWeekend := timeseries.DayTypeOf(dayStart) == timeseries.Weekend
		for _, a := range apps {
			expected := a.RunsPerDay
			if isWeekend && a.WeekendFactor > 0 {
				expected *= a.WeekendFactor
			}
			runs := int(expected)
			if rng.Float64() < expected-float64(runs) {
				runs++
			}
			for k := 0; k < runs; k++ {
				hour := a.SampleStartHour(rng)
				minute := rng.Intn(60)
				planned := dayStart.Add(time.Duration(hour)*time.Hour + time.Duration(minute)*time.Minute)
				actual := planned
				shifted := false
				if a.Flexible {
					actual = cfg.Response.ShiftStart(rng, planned, a.TimeFlexibility, tr)
					shifted = !actual.Equal(planned)
				}
				if actual.Before(day0) || actual.Add(a.RunDuration()).After(horizonEnd) {
					continue // run does not fit in the horizon
				}
				run := a.SampleRun(rng)
				startIdx := int(actual.Sub(day0) / time.Minute)
				var energy float64
				for i, v := range run {
					perApp[a.Name][startIdx+i] += v
					energy += v
				}
				activations = append(activations, Activation{
					Appliance:    a.Name,
					Start:        actual,
					PlannedStart: planned,
					Duration:     a.RunDuration(),
					Energy:       energy,
					Flexible:     a.Flexible,
					Shifted:      shifted,
				})
			}
		}
	}
	sortActivations(activations)

	// Compose and resample. Each appliance is added once, in name order:
	// ranging over the map would change the order of the float additions
	// from run to run, and ranging over apps would count a name listed
	// twice in cfg.Appliances twice.
	names := make([]string, 0, len(perApp))
	for name := range perApp {
		names = append(names, name)
	}
	sort.Strings(names)
	total := make([]float64, minutes)
	copy(total, base)
	for _, name := range names {
		for i, v := range perApp[name] {
			total[i] += v
		}
	}
	factor := int(resolution / time.Minute)
	mk := func(vals []float64) (*timeseries.Series, error) {
		s, err := timeseries.New(day0, time.Minute, vals)
		if err != nil {
			return nil, err
		}
		return s.Downsample(factor)
	}
	totalS, err := mk(total)
	if err != nil {
		return nil, err
	}
	baseS, err := mk(base)
	if err != nil {
		return nil, err
	}
	perAppS := make(map[string]*timeseries.Series, len(perApp))
	for name, vals := range perApp {
		s, err := mk(vals)
		if err != nil {
			return nil, err
		}
		perAppS[name] = s
	}
	return &Result{
		Config:       cfg,
		Total:        totalS,
		PerAppliance: perAppS,
		Base:         baseS,
		Activations:  activations,
	}, nil
}

// SimulatePair simulates the same household under flat billing and under a
// time-of-use tariff with the configured response — the paired
// one-tariff/multi-tariff input the multi-tariff extraction needs (§3.3).
// Both runs share the household structure but cover independent periods
// (different random draws), as they would in reality: days under flat
// billing, then days after the multi-tariff scheme was introduced, which
// starts immediately after the flat period ends.
func SimulatePair(reg *appliance.Registry, cfg Config, tou tariff.TimeOfUse, resp tariff.Response, start time.Time, days int, resolution time.Duration) (flat, multi *Result, err error) {
	flatCfg := cfg
	flatCfg.Tariff = tariff.Flat{Price: tou.HighPrice}
	flatCfg.Response = tariff.Response{}
	flat, err = Simulate(reg, flatCfg, start, days, resolution)
	if err != nil {
		return nil, nil, err
	}
	multiCfg := cfg
	multiCfg.Tariff = tou
	multiCfg.Response = resp
	multiCfg.Seed = cfg.Seed + 1
	multi, err = Simulate(reg, multiCfg, flat.Total.End(), days, resolution)
	if err != nil {
		return nil, nil, err
	}
	return flat, multi, nil
}

// gauss is an unnormalised Gaussian bump used for the daily base-load shape.
func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-d * d / 2)
}

// sortActivations orders activations by start time, then appliance name.
func sortActivations(as []Activation) {
	sort.Slice(as, func(i, j int) bool {
		if !as[i].Start.Equal(as[j].Start) {
			return as[i].Start.Before(as[j].Start)
		}
		return as[i].Appliance < as[j].Appliance
	})
}
