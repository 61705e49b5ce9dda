// Package mirabel runs the offline MIRABEL evaluation that extracted
// flex-offers exist for (§1, §6): simulate a household population and a
// wind farm sized to it, extract each household's flex-offers, sum what
// stays inflexible, aggregate the offers, schedule the aggregates against
// the wind, and compare the imbalance with that of no flexibility.
//
// Experiments E12 and E13, cmd/mirabel and the examples run this one loop;
// a caller chooses only the population size, the seeds, the wind scale and
// the extraction. The loop reproduces bit for bit from its seeds.
package mirabel

import (
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/flexoffer"
	"repro/internal/household"
	"repro/internal/res"
	"repro/internal/sched"
	"repro/internal/timeseries"
)

// grid is the market resolution: household load, inflexible demand, wind
// supply and schedulable offers all share it.
const grid = 15 * time.Minute

// start is the first simulated day, the paper-era date used across the
// repository.
var start = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// Household is one simulated household.
type Household struct {
	// Config is the simulated configuration; Config.ID names the consumer.
	Config household.Config
	// Fine is the total consumption at 1-minute resolution, fine enough
	// for appliance-level extraction.
	Fine *timeseries.Series
	// Load is the total consumption on the grid.
	Load *timeseries.Series
}

// Population is a simulated neighbourhood and the wind farm sized to it.
type Population struct {
	// Households are the simulated households, in
	// household.Population order.
	Households []Household
	// Total is the population's consumption on the grid: the sum of the
	// 1-minute totals, resampled.
	Total *timeseries.Series
	// RatedKW is the wind farm's rated power: windScale times the
	// population's mean load power.
	RatedKW float64
	// Supply is the wind farm's production on the grid.
	Supply *timeseries.Series
}

// Simulate simulates household.Population(households, seed) for days from
// 2012-06-04 at 1-minute resolution, resamples each household and the
// population total to the 15-minute grid, and simulates a wind farm rated
// at windScale times the mean load power with the same seed.
func Simulate(households, days int, seed int64, windScale float64) (*Population, error) {
	reg := appliance.Default()
	cfgs := household.Population(households, seed)
	p := &Population{Households: make([]Household, len(cfgs))}
	fine := make([]*timeseries.Series, len(cfgs))
	for i, cfg := range cfgs {
		r, err := household.Simulate(reg, cfg, start, days, time.Minute)
		if err != nil {
			return nil, fmt.Errorf("household %s: %w", cfg.ID, err)
		}
		load, err := r.Total.ResampleTo(grid)
		if err != nil {
			return nil, err
		}
		p.Households[i] = Household{Config: cfg, Fine: r.Total, Load: load}
		fine[i] = r.Total
	}
	fineTotal, err := timeseries.Sum(fine...)
	if err != nil {
		return nil, err
	}
	if p.Total, err = fineTotal.ResampleTo(grid); err != nil {
		return nil, err
	}
	turbine := res.DefaultTurbine()
	turbine.RatedPowerKW = p.Total.Mean() / grid.Hours() * windScale
	p.RatedKW = turbine.RatedPowerKW
	if p.Supply, err = res.Simulate(res.DefaultWindModel(), turbine, start, days, grid, seed); err != nil {
		return nil, err
	}
	return p, nil
}

// Outcome is one evaluation of a population's extracted flexibility.
type Outcome struct {
	// Offers are every household's offers, in household order.
	Offers flexoffer.Set
	// Inflexible is the sum of the households' modified series on the
	// grid: the demand that stays where it is.
	Inflexible *timeseries.Series
	// Aggregates are the offers aggregated with agg.DefaultParams.
	Aggregates []*agg.Aggregate
	// Schedule places the aggregates against the supply.
	Schedule *sched.Result
	// NoFlex is the imbalance of the population's load with no
	// flexibility, Earliest that of every aggregate at its earliest start,
	// and Scheduled that of the schedule.
	NoFlex, Earliest, Scheduled sched.Metrics

	supply *timeseries.Series
	offers flexoffer.Set // the aggregates' offers, in Aggregates order
}

// Run extracts every household's offers with extract(i), where i indexes
// Households, then aggregates, schedules and measures them. A
// modified series finer than the grid is resampled to it.
func (p *Population) Run(extract func(i int) (*core.Result, error)) (*Outcome, error) {
	o := &Outcome{supply: p.Supply}
	parts := make([]*timeseries.Series, len(p.Households))
	for i, h := range p.Households {
		r, err := extract(i)
		if err != nil {
			return nil, fmt.Errorf("extract %s: %w", h.Config.ID, err)
		}
		o.Offers = append(o.Offers, r.Offers...)
		parts[i] = r.Modified
		if r.Modified.Resolution() < grid {
			if parts[i], err = r.Modified.ResampleTo(grid); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if o.Inflexible, err = timeseries.Sum(parts...); err != nil {
		return nil, err
	}
	if o.Aggregates, err = agg.AggregateSet(o.Offers, agg.DefaultParams()); err != nil {
		return nil, err
	}
	for _, a := range o.Aggregates {
		o.offers = append(o.offers, a.Offer)
	}
	if o.NoFlex, err = sched.Imbalance(p.Total, p.Supply); err != nil {
		return nil, err
	}
	earliest, err := sched.ScheduleAtEarliest(o.offers, o.Inflexible)
	if err != nil {
		return nil, err
	}
	if o.Earliest, err = sched.Imbalance(earliest.Demand, p.Supply); err != nil {
		return nil, err
	}
	o.Schedule, o.Scheduled, err = o.scheduleOn(p.Supply)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// Reschedule schedules the aggregates against seen, a forecast of the
// supply, and measures the schedule against the actual supply.
func (o *Outcome) Reschedule(seen *timeseries.Series) (sched.Metrics, error) {
	_, m, err := o.scheduleOn(seen)
	return m, err
}

func (o *Outcome) scheduleOn(seen *timeseries.Series) (*sched.Result, sched.Metrics, error) {
	s, err := (&sched.Scheduler{}).Schedule(o.offers, o.Inflexible, seen)
	if err != nil {
		return nil, sched.Metrics{}, err
	}
	m, err := sched.Imbalance(s.Demand, o.supply)
	return s, m, err
}
