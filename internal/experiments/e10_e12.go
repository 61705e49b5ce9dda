package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flexoffer"
	"repro/internal/household"
	"repro/internal/mirabel"
	"repro/internal/timeseries"
)

// RunE10 compares the realism of every extraction approach against the
// random baseline the paper criticises (§1): placement entropy (random ≈
// uniform), correlation of offer placement with consumption, and the share
// of offered energy inside peak consumption hours.
func RunE10(w io.Writer) error {
	return runE10Sized(w, 28)
}

func runE10Sized(w io.Writer, days int) error {
	sim, err := fineHousehold(days, 10)
	if err != nil {
		return err
	}
	quarter := resampleOrPanic(sim.Total, 15*time.Minute)
	p := core.DefaultParams()

	type entry struct {
		name   string
		offers flexoffer.Set
		input  *timeseries.Series
	}
	var entries []entry
	for _, ex := range []core.Extractor{
		&core.RandomExtractor{Params: p},
		&core.BasicExtractor{Params: p},
		&core.PeakExtractor{Params: p},
	} {
		r, err := ex.Extract(quarter)
		if err != nil {
			return err
		}
		entries = append(entries, entry{ex.Name(), r.Offers, quarter})
	}
	fx := &core.FrequencyExtractor{Params: p, Registry: defaultRegistry}
	fr, err := fx.Extract(sim.Total)
	if err != nil {
		return err
	}
	entries = append(entries, entry{"frequency (appliance)", fr.Offers, quarter})

	t := newTable("approach", "offers/day", "flex share", "placement entropy", "corr. w/ consumption", "peak-hour share")
	for _, e := range entries {
		r, err := eval.Evaluate(e.offers, e.input)
		if err != nil {
			return err
		}
		t.addf("%s|%.2f|%.2f%%|%.2f|%.2f|%.2f",
			e.name, r.OffersPerDay, r.FlexibleShare*100, r.PlacementEntropy,
			r.ConsumptionCorrelation, r.PeakShare)
	}
	t.write(w)
	fmt.Fprintln(w, "\nexpected shape: random has the highest entropy and lowest correlation;")
	fmt.Fprintln(w, "peak-based concentrates offers into peak hours; appliance-level sits where")
	fmt.Fprintln(w, "actual flexible appliances ran.")
	return nil
}

// RunE11 reproduces the §6 claim that aggregated flex-offers are "pretty
// realistic" even when individual peak-based offers are not: offers from a
// population are aggregated and the aggregate's placement profile is
// correlated with the population consumption profile.
func RunE11(w io.Writer) error {
	return runE11Sized(w, 100, 7)
}

func runE11Sized(w io.Writer, households, days int) error {
	cfgs := household.Population(households, 11)
	results, popTotal, err := household.SimulatePopulation(defaultRegistry, cfgs, day0, days, 15*time.Minute)
	if err != nil {
		return err
	}
	p := core.DefaultParams()

	t := newTable("approach", "offers", "aggregates", "members/agg", "corr. w/ population load")
	for _, name := range []string{"peak", "random"} {
		var all flexoffer.Set
		for i, r := range results {
			pp := p
			pp.Seed = int64(i)
			pp.ConsumerID = r.Config.ID
			var ex core.Extractor
			if name == "peak" {
				ex = &core.PeakExtractor{Params: pp}
			} else {
				ex = &core.RandomExtractor{Params: pp}
			}
			res, err := ex.Extract(r.Total)
			if err != nil {
				return err
			}
			all = append(all, res.Offers...)
		}
		aggs, err := agg.AggregateSet(all, agg.DefaultParams())
		if err != nil {
			return err
		}
		var aggOffers flexoffer.Set
		for _, a := range aggs {
			aggOffers = append(aggOffers, a.Offer)
		}
		r, err := eval.Evaluate(aggOffers, popTotal)
		if err != nil {
			return err
		}
		t.addf("%s|%d|%d|%.1f|%.2f",
			name, len(all), len(aggs), float64(agg.TotalMembers(aggs))/float64(len(aggs)),
			r.ConsumptionCorrelation)
	}
	t.write(w)
	fmt.Fprintln(w, "\nexpected shape: aggregated peak-based offers correlate strongly with the")
	fmt.Fprintln(w, "population load curve; aggregated random offers stay uncorrelated.")
	return nil
}

// RunE12 runs the end-to-end MIRABEL pipeline the flex-offer concept exists
// for: simulate a population, extract flexibility, aggregate, schedule
// against wind production, and measure the imbalance reduction. It also
// prints the offers-per-hour histogram behind the paper's peak-hours
// scalability concern (§1).
func RunE12(w io.Writer) error {
	return runE12Sized(w, 100, 7)
}

func runE12Sized(w io.Writer, households, days int) error {
	pop, err := mirabel.Simulate(households, days, 12, 1.6)
	if err != nil {
		return err
	}
	approaches := []string{"peak", "random", "frequency"}
	outs := make([]*mirabel.Outcome, len(approaches))
	for k, name := range approaches {
		outs[k], err = pop.Run(func(i int) (*core.Result, error) {
			pp := core.DefaultParams()
			pp.Seed = int64(1000 + i)
			pp.ConsumerID = pop.Households[i].Config.ID
			switch name {
			case "peak":
				return (&core.PeakExtractor{Params: pp}).Extract(pop.Households[i].Load)
			case "random":
				return (&core.RandomExtractor{Params: pp}).Extract(pop.Households[i].Load)
			default:
				// Appliance-level extraction needs the 1-minute series;
				// Run resamples its modified remainder to the grid.
				fe := &core.FrequencyExtractor{Params: pp, Registry: defaultRegistry}
				return fe.Extract(pop.Households[i].Fine)
			}
		})
		if err != nil {
			return err
		}
	}

	baseline := outs[0].NoFlex
	fmt.Fprintf(w, "population %d households x %d days; wind farm rated %.0f kW\n", households, days, pop.RatedKW)
	fmt.Fprintf(w, "no-flexibility baseline: unmatched demand %.0f kWh, spilled supply %.0f kWh, RMSE %.2f\n\n",
		baseline.UnmatchedDemand, baseline.UnusedSupply, baseline.RMSE)

	// Offers-per-hour histogram: the peak-hour concentration that
	// motivates testing MIRABEL scalability on realistic offers.
	var hist [24]int
	for _, f := range outs[0].Offers {
		hist[f.EarliestStart.UTC().Hour()]++
	}
	fmt.Fprint(w, "peak-based offers per hour of day: ")
	for h, c := range hist {
		if c > 0 {
			fmt.Fprintf(w, "%02d:%d ", h, c)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)

	t := newTable("extraction", "offers", "aggregates", "sched unmatched kWh", "improvement vs baseline", "earliest-start unmatched")
	for k, o := range outs {
		improvement := (baseline.UnmatchedDemand - o.Scheduled.UnmatchedDemand) / baseline.UnmatchedDemand * 100
		t.addf("%s|%d|%d|%.0f|%.1f%%|%.0f",
			approaches[k], len(o.Offers), len(o.Aggregates), o.Scheduled.UnmatchedDemand, improvement, o.Earliest.UnmatchedDemand)
	}
	t.write(w)
	fmt.Fprintln(w, "\nexpected shape: scheduling extracted flexibility reduces unmatched demand")
	fmt.Fprintln(w, "below both the no-flexibility baseline and earliest-start placement. Peak-based")
	fmt.Fprintln(w, "offers concentrate in morning/evening hours (the histogram above) — exactly the")
	fmt.Fprintln(w, "peak-hour load the paper says random generation cannot exercise (§1). Random")
	fmt.Fprintln(w, "offers, pretending flexibility exists at any hour, schedule slightly *better*,")
	fmt.Fprintln(w, "i.e. the random baseline makes the MIRABEL evaluation over-optimistic. The")
	fmt.Fprintln(w, "appliance-level offers carry real appliance time flexibilities (up to the")
	fmt.Fprintln(w, "robot's 22 h) and more energy, so they deliver the largest genuine reduction.")
	return nil
}
