// Forecasting: the MIRABEL stack schedules day-ahead, so it runs on
// *forecasts* of consumption and production ([6]). This example trains the
// three forecasters on three weeks of simulated population load, compares
// their accuracy on the following week, and then schedules flex-offers
// against a wind forecast instead of actual production.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/mirabel"
	"repro/internal/res"
	"repro/internal/sched"
)

func main() {
	// Four weeks of population load: 3 to train, 1 to test. The wind farm
	// is rated at 1.5 times the mean load.
	pop, err := mirabel.Simulate(25, 28, 4, 1.5)
	if err != nil {
		log.Fatal(err)
	}
	split := 21 * 96
	train, err := pop.Total.Slice(0, split)
	if err != nil {
		log.Fatal(err)
	}
	test, err := pop.Total.Slice(split, pop.Total.Len())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("1. consumption forecasting (21 train days, 7 test days):")
	for _, m := range []forecast.Model{
		&forecast.SeasonalNaive{Period: 96},
		&forecast.SES{Alpha: 0.3},
		&forecast.HoltWinters{Alpha: 0.25, Beta: 0.01, Gamma: 0.2, Period: 96, Damping: 0.9},
	} {
		metrics, err := forecast.Evaluate(m, train, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %-32s MAE %5.2f kWh   RMSE %5.2f   MAPE %5.1f%%\n",
			m.Name(), metrics.MAE, metrics.RMSE, metrics.MAPE)
	}

	// 2. Extract offers and schedule them against a *forecast* of wind.
	out, err := pop.Run(func(i int) (*core.Result, error) {
		p := core.DefaultParams()
		p.Seed = int64(i)
		return (&core.PeakExtractor{Params: p}).Extract(pop.Households[i].Load)
	})
	if err != nil {
		log.Fatal(err)
	}
	seen := res.ForecastWithError(pop.Supply, 0.2, 99) // day-ahead wind forecast, 20% error

	onForecast, err := (&sched.Scheduler{}).Schedule(out.Offers, out.Inflexible, seen)
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := (&sched.Scheduler{}).Schedule(out.Offers, out.Inflexible, pop.Supply)
	if err != nil {
		log.Fatal(err)
	}
	// Both schedules are judged against what the wind actually did.
	realised, err := sched.Imbalance(onForecast.Demand, pop.Supply)
	if err != nil {
		log.Fatal(err)
	}
	best, err := sched.Imbalance(oracle.Demand, pop.Supply)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n2. scheduled %d offers day-ahead, judged against actual wind:\n", len(onForecast.Assignments))
	fmt.Printf("   scheduling on the forecast leaves %8.0f kWh unmatched\n", realised.UnmatchedDemand)
	fmt.Printf("   a perfect-forecast oracle leaves  %8.0f kWh unmatched\n", best.UnmatchedDemand)
	fmt.Printf("   cost of the 20%% forecast error:   %8.0f kWh\n", realised.UnmatchedDemand-best.UnmatchedDemand)
}
