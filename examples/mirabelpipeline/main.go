// MIRABEL pipeline: the full loop the flex-offer concept serves — simulate
// a small neighbourhood, extract flex-offers with the peak-based approach
// (the one MIRABEL used for its evaluation, §6), aggregate them, schedule
// the aggregates against wind, and disaggregate the schedule back to
// per-household assignments.
package main

import (
	"fmt"
	"log"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/mirabel"
)

func main() {
	const nHouseholds, days = 30, 7

	// 1. Simulate the neighbourhood and a wind farm rated at 1.5 times its
	// mean load.
	pop, err := mirabel.Simulate(nHouseholds, days, 7, 1.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. simulated %d households x %d days: %.0f kWh\n", nHouseholds, days, pop.Total.Total())

	// 2.–4. Extract one flex-offer per household per day (peak-based),
	// aggregate, and schedule the aggregates against the wind.
	out, err := pop.Run(func(i int) (*core.Result, error) {
		p := core.DefaultParams()
		p.Seed = int64(i)
		p.ConsumerID = pop.Households[i].Config.ID
		return (&core.PeakExtractor{Params: p}).Extract(pop.Households[i].Load)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. extracted %d offers carrying %.0f kWh\n", len(out.Offers), out.Offers.TotalAvgEnergy())
	fmt.Printf("3. aggregated into %d offers (%.1f members each)\n",
		len(out.Aggregates), float64(agg.TotalMembers(out.Aggregates))/float64(len(out.Aggregates)))
	fmt.Printf("4. scheduled %d aggregates: unmatched demand %.0f → %.0f kWh (%.1f%% better)\n",
		len(out.Schedule.Assignments), out.NoFlex.UnmatchedDemand, out.Scheduled.UnmatchedDemand,
		(out.NoFlex.UnmatchedDemand-out.Scheduled.UnmatchedDemand)/out.NoFlex.UnmatchedDemand*100)

	// 5. Disaggregate the first aggregate's schedule back to households.
	if len(out.Schedule.Assignments) > 0 {
		target := out.Schedule.Assignments[0]
		for _, a := range out.Aggregates {
			if a.Offer != target.Offer {
				continue
			}
			members, err := a.Disaggregate(target)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("5. disaggregated %s back to %d household assignments, e.g.:\n",
				target.Offer.ID, len(members))
			for i, m := range members {
				if i >= 3 {
					break
				}
				fmt.Printf("   %s starts %s with %.2f kWh\n",
					m.Offer.ConsumerID, m.Start.Format("Mon 15:04"), m.TotalEnergy())
			}
			break
		}
	}
}
