// Command mirabel runs the end-to-end MIRABEL evaluation pipeline the
// flex-offer concept exists for: simulate a household population, extract
// flex-offers from each household's consumption, aggregate them, schedule
// the aggregates against simulated wind production, and report the
// imbalance reduction relative to the no-flexibility baseline.
//
// Usage:
//
//	mirabel -households 100 -days 7 -approach peak -flexpct 0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/mirabel"
)

func main() {
	households := flag.Int("households", 100, "population size")
	days := flag.Int("days", 7, "horizon in days")
	approach := flag.String("approach", "peak", "basic | peak | random")
	flexPct := flag.Float64("flexpct", 0.05, "flexible share parameter")
	seed := flag.Int64("seed", 12, "simulation seed")
	windScale := flag.Float64("wind-scale", 1.6, "wind farm rated power as multiple of average population load")
	flag.Parse()

	if err := run(os.Stdout, *households, *days, *approach, *flexPct, *seed, *windScale); err != nil {
		fmt.Fprintf(os.Stderr, "mirabel: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, households, days int, approach string, flexPct float64, seed int64, windScale float64) error {
	extractor, err := core.Approach(approach)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "simulating %d households x %d days ...\n", households, days)
	pop, err := mirabel.Simulate(households, days, seed, windScale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "population consumption: %.0f kWh total, %.1f kWh avg/interval peak-to-average %.2f\n",
		pop.Total.Total(), pop.Total.Mean(), pop.Total.PeakToAverage())

	fmt.Fprintf(w, "extracting flex-offers (%s, %.1f%%) ...\n", approach, flexPct*100)
	out, err := pop.Run(func(i int) (*core.Result, error) {
		p := core.DefaultParams()
		p.FlexPercentage = flexPct
		p.Seed = seed + int64(i)
		p.ConsumerID = pop.Households[i].Config.ID
		return extractor(p).Extract(pop.Households[i].Load)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "extracted %d offers carrying %.0f kWh (%.2f%% of consumption)\n",
		len(out.Offers), out.Offers.TotalAvgEnergy(), out.Offers.TotalAvgEnergy()/pop.Total.Total()*100)
	fmt.Fprintf(w, "aggregated into %d offers (%.1f members each on average)\n",
		len(out.Aggregates), float64(agg.TotalMembers(out.Aggregates))/float64(len(out.Aggregates)))
	fmt.Fprintf(w, "wind farm rated %.0f kW produced %.0f kWh\n", pop.RatedKW, pop.Supply.Total())

	fmt.Fprintf(w, "\n%-28s %14s %14s %10s\n", "scenario", "unmatched kWh", "spilled kWh", "RMSE")
	fmt.Fprintf(w, "%-28s %14.0f %14.0f %10.2f\n", "no flexibility", out.NoFlex.UnmatchedDemand, out.NoFlex.UnusedSupply, out.NoFlex.RMSE)
	fmt.Fprintf(w, "%-28s %14.0f %14.0f %10.2f\n", "offers at earliest start", out.Earliest.UnmatchedDemand, out.Earliest.UnusedSupply, out.Earliest.RMSE)
	fmt.Fprintf(w, "%-28s %14.0f %14.0f %10.2f\n", "scheduled offers", out.Scheduled.UnmatchedDemand, out.Scheduled.UnusedSupply, out.Scheduled.RMSE)
	fmt.Fprintf(w, "\nimbalance reduction vs no-flexibility: %.1f%% (skipped offers: %d)\n",
		(out.NoFlex.UnmatchedDemand-out.Scheduled.UnmatchedDemand)/out.NoFlex.UnmatchedDemand*100, len(out.Schedule.Skipped))
	return nil
}
