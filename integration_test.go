package repro_bench

import (
	"bytes"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flexoffer"
	"repro/internal/household"
	"repro/internal/market"
	"repro/internal/mirabel"
	"repro/internal/res"
	"repro/internal/sched"
	"repro/internal/timeseries"
)

// TestEndToEndPipelineConsistency drives the offline MIRABEL loop and checks
// the cross-module invariants: extraction accounting, aggregation energy
// conservation, scheduler feasibility, and disaggregation consistency —
// the member assignments of every aggregate rebuild exactly the energy the
// scheduler placed for it.
func TestEndToEndPipelineConsistency(t *testing.T) {
	pop, err := mirabel.Simulate(8, 3, 42, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pop.Run(func(i int) (*core.Result, error) {
		h := pop.Households[i]
		p := core.DefaultParams()
		p.Seed = int64(i)
		p.ConsumerID = h.Config.ID
		r, err := (&core.PeakExtractor{Params: p}).Extract(h.Load)
		// Per-household extraction accounting.
		if err == nil && math.Abs(r.Modified.Total()+r.Offers.TotalAvgEnergy()-h.Load.Total()) > 1e-6 {
			t.Errorf("accounting broken for %s", h.Config.ID)
		}
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Population-level accounting.
	if math.Abs(out.Inflexible.Total()+out.Offers.TotalAvgEnergy()-pop.Total.Total()) > 1e-6 {
		t.Fatal("population accounting broken")
	}

	if agg.TotalMembers(out.Aggregates) != len(out.Offers) {
		t.Fatalf("aggregation lost offers: %d members vs %d offers", agg.TotalMembers(out.Aggregates), len(out.Offers))
	}
	byOffer := make(map[*flexoffer.FlexOffer]*agg.Aggregate)
	for _, a := range out.Aggregates {
		byOffer[a.Offer] = a
	}
	for _, asg := range out.Schedule.Assignments {
		if err := asg.Validate(); err != nil {
			t.Fatalf("scheduled assignment invalid: %v", err)
		}
		a := byOffer[asg.Offer]
		if a == nil {
			t.Fatal("assignment for unknown aggregate")
		}
		members, err := a.Disaggregate(asg)
		if err != nil {
			t.Fatalf("disaggregate %s: %v", asg.Offer.ID, err)
		}
		var memberEnergy float64
		for _, m := range members {
			if err := m.Validate(); err != nil {
				t.Fatalf("member assignment invalid: %v", err)
			}
			memberEnergy += m.TotalEnergy()
		}
		if math.Abs(memberEnergy-asg.TotalEnergy()) > 1e-6 {
			t.Fatalf("disaggregation energy mismatch for %s: %v vs %v",
				asg.Offer.ID, memberEnergy, asg.TotalEnergy())
		}
	}

	// Scheduling never makes the imbalance worse than ignoring flexibility.
	if out.Scheduled.UnmatchedDemand > out.NoFlex.UnmatchedDemand+1e-6 {
		t.Errorf("scheduling increased unmatched demand: %v -> %v",
			out.NoFlex.UnmatchedDemand, out.Scheduled.UnmatchedDemand)
	}
}

// TestSerializationPipeline pushes offers and series through their wire
// formats mid-pipeline and checks nothing changes.
func TestSerializationPipeline(t *testing.T) {
	cfg := household.Config{
		ID: "ser-test", Residents: 2,
		Appliances: []string{"washing machine Y", "television", "refrigerator"},
		BaseLoadKW: 0.2, MorningPeak: 0.6, EveningPeak: 1.0, NoiseStd: 0.1,
		Seed: 5,
	}
	sim, err := household.Simulate(registry, cfg, benchStart, 3, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// Series CSV round trip.
	var csvBuf bytes.Buffer
	if err := sim.Total.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	series, err := timeseries.ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}

	p := core.DefaultParams()
	out, err := (&core.PeakExtractor{Params: p}).Extract(series)
	if err != nil {
		t.Fatal(err)
	}

	// Offer JSON round trip.
	var jsonBuf bytes.Buffer
	if err := out.Offers.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	offers, err := flexoffer.ReadJSON(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != len(out.Offers) {
		t.Fatalf("offers lost in round trip: %d vs %d", len(offers), len(out.Offers))
	}
	if math.Abs(offers.TotalAvgEnergy()-out.Offers.TotalAvgEnergy()) > 1e-9 {
		t.Error("offer energy changed in round trip")
	}
	// Round-tripped offers still schedule.
	horizon := sched.Horizon(series)
	if _, err := sched.ScheduleAtEarliest(offers, horizon); err != nil {
		t.Fatalf("round-tripped offers unschedulable: %v", err)
	}
}

// TestExtractionAccountingProperty: for random consumption series, every
// consumption-level extractor keeps the accounting identity and produces
// valid offers.
func TestExtractionAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		days := rng.Intn(3) + 1
		vals := make([]float64, days*96)
		for i := range vals {
			vals[i] = rng.Float64() * 2
		}
		input, err := timeseries.New(benchStart, 15*time.Minute, vals)
		if err != nil {
			return false
		}
		p := core.DefaultParams()
		p.Seed = seed
		for _, ex := range []core.Extractor{
			&core.BasicExtractor{Params: p},
			&core.PeakExtractor{Params: p},
			&core.RandomExtractor{Params: p},
		} {
			out, err := ex.Extract(input)
			if err != nil {
				return false
			}
			if out.Offers.Validate() != nil {
				return false
			}
			if math.Abs(out.Modified.Total()+out.Offers.TotalAvgEnergy()-input.Total()) > 1e-6 {
				return false
			}
			if out.Modified.Min() < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRealismOrderingStableAcrossSeeds: the E10 realism ranking
// (peak > random in consumption correlation) holds across seeds, not just
// the one used in the experiment.
func TestRealismOrderingStableAcrossSeeds(t *testing.T) {
	day := make([]float64, 96*14)
	for i := range day {
		h := float64(i%96) / 4
		day[i] = 0.2 + 0.8*math.Exp(-(h-19)*(h-19)/3)
	}
	input := timeseries.MustNew(benchStart, 15*time.Minute, day)
	for seed := int64(0); seed < 5; seed++ {
		p := core.DefaultParams()
		p.Seed = seed
		pr, err := (&core.PeakExtractor{Params: p}).Extract(input)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := (&core.RandomExtractor{Params: p}).Extract(input)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := eval.Evaluate(pr.Offers, input)
		if err != nil {
			t.Fatal(err)
		}
		re, err := eval.Evaluate(rr.Offers, input)
		if err != nil {
			t.Fatal(err)
		}
		if pe.PeakShare <= re.PeakShare {
			t.Errorf("seed %d: peak share %v <= random %v", seed, pe.PeakShare, re.PeakShare)
		}
	}
}

// TestMarketPipelineIntegration drives extraction output through the
// collection store over HTTP: submit, accept, schedule, assign — asserting
// the lifecycle the examples/market program demonstrates.
func TestMarketPipelineIntegration(t *testing.T) {
	cfg := household.Config{
		ID: "market-int", Residents: 3,
		Appliances: []string{"washing machine Y", "dishwasher Z", "television", "refrigerator"},
		BaseLoadKW: 0.25, MorningPeak: 0.8, EveningPeak: 1.2, NoiseStd: 0.1,
		Seed: 99,
	}
	sim, err := household.Simulate(registry, cfg, benchStart, 3, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.ConsumerID = cfg.ID
	out, err := (&core.PeakExtractor{Params: p}).Extract(sim.Total)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Offers) == 0 {
		t.Fatal("nothing extracted")
	}

	var mu sync.Mutex
	now := benchStart
	setNow := func(tm time.Time) { mu.Lock(); now = tm; mu.Unlock() }
	store := market.NewStore(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	srv := httptest.NewServer(market.NewServer(store))
	defer srv.Close()
	client := &market.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}

	for _, f := range out.Offers {
		setNow(f.CreationTime)
		if err := client.Submit(f); err != nil {
			t.Fatalf("submit %s: %v", f.ID, err)
		}
		setNow(f.AcceptanceTime.Add(-time.Minute))
		if err := client.Accept(f.ID); err != nil {
			t.Fatalf("accept %s: %v", f.ID, err)
		}
	}

	supply, err := res.Simulate(res.DefaultWindModel(), resTurbineFor(sim.Total), benchStart, 3, 15*time.Minute, 99)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := (&sched.Scheduler{}).Schedule(store.AcceptedOffers(), out.Modified, supply)
	if err != nil {
		t.Fatal(err)
	}
	for _, asg := range schedule.Assignments {
		setNow(asg.Offer.AssignmentTime.Add(-time.Minute))
		if err := client.Assign(asg.Offer.ID, asg.Start, asg.Energies); err != nil {
			t.Fatalf("assign %s: %v", asg.Offer.ID, err)
		}
	}
	counts, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if counts.Assigned != len(schedule.Assignments) || counts.Assigned == 0 {
		t.Errorf("assigned = %d, want %d", counts.Assigned, len(schedule.Assignments))
	}
	if counts.Expired != 0 {
		t.Errorf("expired = %d", counts.Expired)
	}
}

// resTurbineFor sizes a turbine to a consumption series.
func resTurbineFor(total *timeseries.Series) res.Turbine {
	tb := res.DefaultTurbine()
	tb.RatedPowerKW = total.Mean() / total.Resolution().Hours() * 1.5
	return tb
}
