// Package repro_bench holds the benchmark harness: one testing.B benchmark
// per experiment row of DESIGN.md (E1–E16), plus ablation benches for the
// design decisions called out there. Run with
//
//	go test -bench=. -benchmem
//
// All fixtures are deterministic; timings measure the reproduction's
// computational cost, while the experiment *outputs* come from
// cmd/experiments (recorded in EXPERIMENTS.md).
package repro_bench

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/disagg"
	"repro/internal/eval"
	"repro/internal/flexoffer"
	"repro/internal/forecast"
	"repro/internal/household"
	"repro/internal/market"
	"repro/internal/paperdata"
	"repro/internal/pipeline"
	"repro/internal/res"
	"repro/internal/sched"
	"repro/internal/tariff"
	"repro/internal/timeseries"
)

var (
	benchStart = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	registry   = appliance.Default()

	fixtureOnce sync.Once
	// fixtures shared across benchmarks (built once, deterministic).
	weekSeries *timeseries.Series // 7 days, 15-min, one household
	fineSeries *timeseries.Series // 14 days, 1-min, one household
	fineTruth  []household.Activation
	pairFlat   *timeseries.Series
	pairMulti  *timeseries.Series
	popResults []*household.Result
	popTotal   *timeseries.Series
	peakOffers flexoffer.Set
	peakInflex *timeseries.Series
	windSupply *timeseries.Series
)

// e6TOU is the E6 time-of-use scheme (low price 22:00-06:00).
func e6TOU() tariff.TimeOfUse {
	return tariff.TimeOfUse{HighPrice: 0.40, LowPrice: 0.15, LowStartHour: 22, LowEndHour: 6}
}

// e6Response is the E6 consumer behaviour (90% of flexible runs shifted).
func e6Response() tariff.Response {
	return tariff.Response{ShiftProbability: 0.9}
}

func fixtures(b *testing.B) {
	b.Helper()
	fixtureOnce.Do(func() {
		cfg := household.Config{
			ID: "bench-home", Residents: 3,
			Appliances: []string{"washing machine Y", "dishwasher Z", "vacuum cleaning robot X", "refrigerator"},
			BaseLoadKW: 0.22, MorningPeak: 0.7, EveningPeak: 1.1, NoiseStd: 0.08,
			Seed: 99,
		}
		week, err := household.Simulate(registry, cfg, benchStart, 7, 15*time.Minute)
		if err != nil {
			panic(err)
		}
		weekSeries = week.Total

		fine, err := household.Simulate(registry, cfg, benchStart, 14, time.Minute)
		if err != nil {
			panic(err)
		}
		fineSeries = fine.Total
		fineTruth = fine.Activations

		cfgs := household.Population(20, 5)
		popResults, popTotal, err = household.SimulatePopulation(registry, cfgs, benchStart, 7, 15*time.Minute)
		if err != nil {
			panic(err)
		}

		// Peak offers + inflexible remainder over the population.
		var parts []*timeseries.Series
		for i, r := range popResults {
			p := core.DefaultParams()
			p.Seed = int64(i)
			out, err := (&core.PeakExtractor{Params: p}).Extract(r.Total)
			if err != nil {
				panic(err)
			}
			peakOffers = append(peakOffers, out.Offers...)
			parts = append(parts, out.Modified)
		}
		peakInflex, err = timeseries.Sum(parts...)
		if err != nil {
			panic(err)
		}

		turbine := res.DefaultTurbine()
		turbine.RatedPowerKW = popTotal.Mean() / 0.25 * 1.5
		windSupply, err = res.Simulate(res.DefaultWindModel(), turbine, benchStart, 7, 15*time.Minute, 5)
		if err != nil {
			panic(err)
		}
	})
}

// BenchmarkFigure1EVFlexOffer (E1): construct, validate and schedule the
// Fig. 1 offer.
func BenchmarkFigure1EVFlexOffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := paperdata.Figure1Offer()
		if err := f.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := f.AssignDefault(f.EarliestStart.Add(2 * time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasicExtraction (E2): the basic approach over one household-week.
func BenchmarkBasicExtraction(b *testing.B) {
	fixtures(b)
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.BasicExtractor{Params: p}).Extract(weekSeries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeakExtraction (E3): the peak-based approach over one
// household-week (detection + filtering + selection + offer building).
func BenchmarkPeakExtraction(b *testing.B) {
	fixtures(b)
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.PeakExtractor{Params: p}).Extract(weekSeries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeakDetectionOnly (E3 ablation): raw peak detection over the
// Fig. 5 day.
func BenchmarkPeakDetectionOnly(b *testing.B) {
	day := paperdata.Figure5Day()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DetectPeaks(day)
	}
}

// BenchmarkApplianceRegistry (E4): building the registry and computing
// 15-minute signatures for every appliance.
func BenchmarkApplianceRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg := appliance.Default()
		for _, a := range reg.All() {
			if _, err := a.SignatureAt(15 * time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFlexibleShare (E5): basic+peak+random extraction across a
// 20-household population week.
func BenchmarkFlexibleShare(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams()
		for _, r := range popResults {
			for _, ex := range []core.Extractor{
				&core.BasicExtractor{Params: p},
				&core.PeakExtractor{Params: p},
				&core.RandomExtractor{Params: p},
			} {
				if _, err := ex.Extract(r.Total); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkMultiTariffExtraction (E6): typical-profile estimation plus
// excess detection over a 14+14 day pair.
func BenchmarkMultiTariffExtraction(b *testing.B) {
	benchPair(b)
	e := &core.MultiTariffExtractor{
		Params: core.DefaultParams(),
		Tariff: e6TOU(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExtractPair(pairFlat, pairMulti); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrequencyExtraction (E7): full appliance-level pipeline
// (disaggregation + frequency mining + offer building) on 14 days of
// 1-minute data.
func BenchmarkFrequencyExtraction(b *testing.B) {
	fixtures(b)
	e := &core.FrequencyExtractor{Params: core.DefaultParams(), Registry: registry}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Extract(fineSeries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisaggregation (E8): event-based NILM at the paper's contested
// granularities.
func BenchmarkDisaggregation(b *testing.B) {
	fixtures(b)
	for _, resn := range []time.Duration{time.Minute, 15 * time.Minute, 30 * time.Minute} {
		series, err := fineSeries.ResampleTo(resn)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(resn.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := disagg.Detect(series, registry, disagg.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleExtraction (E9): schedule mining + extraction on 14 days
// of 1-minute data.
func BenchmarkScheduleExtraction(b *testing.B) {
	fixtures(b)
	e := &core.ScheduleExtractor{Params: core.DefaultParams(), Registry: registry, MinSupport: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Extract(fineSeries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealismEvaluation (E10): realism metrics over the population's
// peak-based offers.
func BenchmarkRealismEvaluation(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Evaluate(peakOffers, popTotal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregation (E11): grid-based aggregation of the population's
// offers.
func BenchmarkAggregation(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.AggregateSet(peakOffers, agg.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduling (E12): greedy + local-search scheduling of aggregated
// offers against wind.
func BenchmarkScheduling(b *testing.B) {
	fixtures(b)
	aggs, err := agg.AggregateSet(peakOffers, agg.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var offers flexoffer.Set
	for _, a := range aggs {
		offers = append(offers, a.Offer)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&sched.Scheduler{}).Schedule(offers, peakInflex, windSupply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHouseholdSimulation (substrate ablation): one household-week at
// 15-minute output resolution.
func BenchmarkHouseholdSimulation(b *testing.B) {
	cfg := household.Config{
		ID: "bench", Residents: 3,
		Appliances: []string{"washing machine Y", "dishwasher Z", "refrigerator"},
		BaseLoadKW: 0.25, MorningPeak: 0.8, EveningPeak: 1.2, NoiseStd: 0.1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := household.Simulate(registry, cfg, benchStart, 7, 15*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisaggregateAssignment (agg ablation): splitting one aggregate
// assignment back into members.
func BenchmarkDisaggregateAssignment(b *testing.B) {
	fixtures(b)
	aggs, err := agg.AggregateSet(peakOffers, agg.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	// Pick the largest aggregate.
	var target *agg.Aggregate
	for _, a := range aggs {
		if target == nil || len(a.Members) > len(target.Members) {
			target = a
		}
	}
	asg, err := target.Offer.AssignDefault(target.Offer.EarliestStart)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := target.Disaggregate(asg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPair lazily builds the E6 paired series.
var pairOnce sync.Once

func benchPair(b *testing.B) {
	b.Helper()
	pairOnce.Do(func() {
		cfg := household.Config{
			ID: "bench-pair", Residents: 3,
			Appliances: []string{"washing machine Y", "dishwasher Z", "tumble dryer", "television", "refrigerator"},
			BaseLoadKW: 0.25, MorningPeak: 0.8, EveningPeak: 1.2, NoiseStd: 0.08,
			Seed: 66,
		}
		flat, multi, err := household.SimulatePair(registry, cfg, e6TOU(),
			e6Response(), benchStart, 14, 15*time.Minute)
		if err != nil {
			panic(err)
		}
		pairFlat, pairMulti = flat.Total, multi.Total
	})
}

// BenchmarkMarketLifecycle: submit + accept + assign through the collection
// store (the [3] substrate).
func BenchmarkMarketLifecycle(b *testing.B) {
	now := benchStart
	store := market.NewStore(func() time.Time { return now })
	offer := &flexoffer.FlexOffer{
		EarliestStart: benchStart.Add(6 * time.Hour),
		LatestStart:   benchStart.Add(10 * time.Hour),
		Profile:       flexoffer.UniformProfile(4, 15*time.Minute, 0.5, 1.0),
	}
	energies := []float64{0.75, 0.75, 0.75, 0.75}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := offer.Clone()
		f.ID = strconv.Itoa(i)
		if err := store.Submit(f); err != nil {
			b.Fatal(err)
		}
		if err := store.Accept(f.ID); err != nil {
			b.Fatal(err)
		}
		if _, err := store.Assign(f.ID, f.EarliestStart, energies); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatch lazily builds the pipeline benchmark batch: a 100-household
// population week, one extraction job per household.
var (
	batchOnce sync.Once
	batchJobs []pipeline.Job
)

func benchBatch(b *testing.B) {
	b.Helper()
	batchOnce.Do(func() {
		cfgs := household.Population(100, 11)
		results, _, err := household.SimulatePopulation(registry, cfgs, benchStart, 7, 15*time.Minute)
		if err != nil {
			panic(err)
		}
		batchJobs = make([]pipeline.Job, len(results))
		for i, r := range results {
			batchJobs[i] = pipeline.Job{ID: r.Config.ID, Series: r.Total}
		}
	})
}

// BenchmarkPipelineExtraction: peak-based extraction of a 100-household
// batch through the concurrent pipeline at 1, 4 and 8 workers. On multi-core
// hardware the per-series extraction work parallelises; compare ns/op across
// the sub-benchmarks for the speedup (expected >1.5x at 4 workers).
func BenchmarkPipelineExtraction(b *testing.B) {
	benchBatch(b)
	for _, workers := range []int{1, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			cfg := pipeline.Config{
				Workers: workers,
				NewExtractor: func(j pipeline.Job) core.Extractor {
					p := core.DefaultParams()
					p.ConsumerID = j.ID
					for _, c := range j.ID {
						p.Seed = p.Seed*31 + int64(c)
					}
					return &core.PeakExtractor{Params: p}
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := pipeline.RunJobs(context.Background(), cfg, batchJobs, pipeline.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Errors > 0 || stats.SeriesProcessed != len(batchJobs) {
					b.Fatalf("batch incomplete: %s", stats)
				}
			}
		})
	}
}

// BenchmarkForecastHoltWinters (E13): fit + one-week forecast on a
// population week.
func BenchmarkForecastHoltWinters(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &forecast.HoltWinters{Alpha: 0.25, Beta: 0.01, Gamma: 0.2, Period: 96, Damping: 0.9}
		if err := m.Fit(popTotal); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Forecast(96 * 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProductionExtraction (E15): production flex-offers from a wind
// week.
func BenchmarkProductionExtraction(b *testing.B) {
	fixtures(b)
	e := &core.ProductionExtractor{Params: core.DefaultParams()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Extract(windSupply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockQuantileBaseline (E16 ablation): the alternative base
// estimator over 14 days of 1-minute data.
func BenchmarkBlockQuantileBaseline(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fineSeries.BlockQuantileBaseline(1440, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}
