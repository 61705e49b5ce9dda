package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/flexoffer"
	"repro/internal/household"
	"repro/internal/tariff"
)

// The pipeline's central property: a batch extracted through N workers
// yields exactly the offers sequential extraction yields, up to the order
// in which the sink observes them. Extraction randomness is seeded per job,
// so worker scheduling must not leak into results.

// sequentialOutputs runs the jobs one by one through the same factory and
// ID qualification the pipeline applies.
func sequentialOutputs(t *testing.T, cfg Config, jobs []Job) map[string]flexoffer.Set {
	t.Helper()
	out := make(map[string]flexoffer.Set, len(jobs))
	for _, j := range jobs {
		res, err := extractOne(cfg, j)
		if err != nil {
			t.Fatalf("sequential %s: %v", j.ID, err)
		}
		if j.ID != "" {
			for _, f := range res.Offers {
				f.ID = j.ID + "/" + f.ID
			}
		}
		out[j.ID] = res.Offers
	}
	return out
}

// assertBatchMatchesSequential runs the batch at several worker counts and
// compares against the sequential reference offer by offer.
func assertBatchMatchesSequential(t *testing.T, cfg Config, jobs []Job) {
	t.Helper()
	// Sequential extraction reads the same inputs; extractors never mutate
	// them, so reuse is safe (the ownership model's read-only guarantee).
	want := sequentialOutputs(t, cfg, jobs)
	var wantTotal int
	for _, set := range want {
		wantTotal += len(set)
	}
	if wantTotal == 0 {
		t.Fatal("sequential reference extracted no offers; property vacuous")
	}
	for _, workers := range []int{1, 3, 8} {
		cfg := cfg
		cfg.Workers = workers
		sink := &CollectSink{}
		stats, err := RunJobs(context.Background(), cfg, jobs, sink)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Errors != 0 {
			t.Fatalf("workers=%d: job errors %v", workers, stats.JobErrors)
		}
		got := make(map[string]flexoffer.Set)
		for _, out := range sink.Outputs() {
			got[out.JobID] = out.Result.Offers
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d jobs in sink, want %d", workers, len(got), len(want))
		}
		for id, wantSet := range want {
			gotSet, ok := got[id]
			if !ok {
				t.Fatalf("workers=%d: job %s missing from sink", workers, id)
			}
			if len(gotSet) != len(wantSet) {
				t.Fatalf("workers=%d job %s: %d offers, want %d", workers, id, len(gotSet), len(wantSet))
			}
			for i := range wantSet {
				if !reflect.DeepEqual(gotSet[i], wantSet[i]) {
					t.Fatalf("workers=%d job %s offer %d differs:\n got  %+v\n want %+v",
						workers, id, i, gotSet[i], wantSet[i])
				}
			}
		}
	}
}

// consumptionJobs simulates a small population at 15-minute resolution.
func consumptionJobs(t *testing.T, n int) []Job {
	t.Helper()
	reg := appliance.Default()
	cfgs := household.Population(n, 3)
	results, _, err := household.SimulatePopulation(reg, cfgs, testStart, 2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, n)
	for i, r := range results {
		jobs[i] = Job{ID: fmt.Sprintf("pop-%02d", i), Series: r.Total}
	}
	return jobs
}

func seededParams(j Job) core.Params {
	p := core.DefaultParams()
	p.ConsumerID = j.ID
	p.Seed = int64(j.ID[len(j.ID)-1])*31 + int64(len(j.ID))
	return p
}

func TestBatchMatchesSequentialBasic(t *testing.T) {
	jobs := consumptionJobs(t, 6)
	assertBatchMatchesSequential(t, Config{NewExtractor: func(j Job) core.Extractor {
		return &core.BasicExtractor{Params: seededParams(j)}
	}}, jobs)
}

func TestBatchMatchesSequentialPeak(t *testing.T) {
	jobs := consumptionJobs(t, 6)
	assertBatchMatchesSequential(t, Config{NewExtractor: func(j Job) core.Extractor {
		return &core.PeakExtractor{Params: seededParams(j)}
	}}, jobs)
}

func TestBatchMatchesSequentialRandom(t *testing.T) {
	jobs := consumptionJobs(t, 6)
	assertBatchMatchesSequential(t, Config{NewExtractor: func(j Job) core.Extractor {
		return &core.RandomExtractor{Params: seededParams(j)}
	}}, jobs)
}

// applianceJobs simulates households at 1-minute resolution, as the
// appliance-level approaches require.
func applianceJobs(t *testing.T, n int) []Job {
	t.Helper()
	reg := appliance.Default()
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		cfg := household.Config{
			ID: fmt.Sprintf("fine-%02d", i), Residents: 2 + i%2,
			Appliances: []string{"washing machine Y", "dishwasher Z", "vacuum cleaning robot X", "refrigerator"},
			BaseLoadKW: 0.2, MorningPeak: 0.6, EveningPeak: 1.0, NoiseStd: 0.05,
			Seed: int64(40 + i),
		}
		r, err := household.Simulate(reg, cfg, testStart, 3, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{ID: cfg.ID, Series: r.Total}
	}
	return jobs
}

func TestBatchMatchesSequentialFrequency(t *testing.T) {
	if testing.Short() {
		t.Skip("1-minute disaggregation batch")
	}
	reg := appliance.Default()
	jobs := applianceJobs(t, 3)
	assertBatchMatchesSequential(t, Config{NewExtractor: func(j Job) core.Extractor {
		return &core.FrequencyExtractor{Params: seededParams(j), Registry: reg, MinRuns: 1}
	}}, jobs)
}

func TestBatchMatchesSequentialSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("1-minute disaggregation batch")
	}
	reg := appliance.Default()
	jobs := applianceJobs(t, 3)
	assertBatchMatchesSequential(t, Config{NewExtractor: func(j Job) core.Extractor {
		return &core.ScheduleExtractor{Params: seededParams(j), Registry: reg, MinRuns: 1, MinSupport: 0.1}
	}}, jobs)
}

func TestBatchMatchesSequentialMultiTariff(t *testing.T) {
	if testing.Short() {
		t.Skip("paired 14-day simulation")
	}
	reg := appliance.Default()
	tou := tariff.TimeOfUse{HighPrice: 0.40, LowPrice: 0.15, LowStartHour: 22, LowEndHour: 6}
	resp := tariff.Response{ShiftProbability: 0.9}
	jobs := make([]Job, 3)
	for i := range jobs {
		cfg := household.Config{
			ID: fmt.Sprintf("pair-%02d", i), Residents: 3,
			Appliances: []string{"washing machine Y", "dishwasher Z", "tumble dryer", "refrigerator"},
			BaseLoadKW: 0.25, MorningPeak: 0.8, EveningPeak: 1.2, NoiseStd: 0.08,
			Seed: int64(60 + i),
		}
		flat, multi, err := household.SimulatePair(reg, cfg, tou, resp, testStart, 14, 15*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{ID: cfg.ID, Series: multi.Total, Reference: flat.Total}
	}
	assertBatchMatchesSequential(t, Config{NewExtractor: func(j Job) core.Extractor {
		return &core.MultiTariffExtractor{Params: seededParams(j), Tariff: tou}
	}}, jobs)
}

// TestSharedSeriesAcrossJobs exercises ownership rule 1's corollary: one
// immutable series may back several jobs, because workers only read it.
func TestSharedSeriesAcrossJobs(t *testing.T) {
	shared := syntheticSeries(2, 15*time.Minute, 0)
	before := shared.Values()
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("shared-%d", i), Series: shared}
	}
	stats, err := RunJobs(context.Background(), Config{Workers: 4, NewExtractor: peakFactory}, jobs, Discard)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 || stats.SeriesProcessed != 8 {
		t.Fatalf("stats = %v", stats)
	}
	if !reflect.DeepEqual(before, shared.Values()) {
		t.Fatal("extraction mutated the shared input series")
	}
}
