package mirabel

import (
	"math"
	"testing"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/timeseries"
)

// frequency extracts appliance-level offers from household i's 1-minute
// series, so Run has to resample the modified series to the grid.
func frequency(pop *Population) func(int) (*core.Result, error) {
	reg := appliance.Default()
	return func(i int) (*core.Result, error) {
		p := core.DefaultParams()
		p.Seed = int64(i)
		p.ConsumerID = pop.Households[i].Config.ID
		return (&core.FrequencyExtractor{Params: p, Registry: reg}).Extract(pop.Households[i].Fine)
	}
}

// TestRunReproducible: the loop is the reference a live scheduling round
// is compared with, so a rerun with the same seeds must match bit for bit.
func TestRunReproducible(t *testing.T) {
	run := func() (*Population, *Outcome) {
		pop, err := Simulate(6, 2, 3, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		out, err := pop.Run(frequency(pop))
		if err != nil {
			t.Fatal(err)
		}
		return pop, out
	}
	popA, a := run()
	popB, b := run()
	for _, pair := range [][2]*timeseries.Series{
		{popA.Total, popB.Total},
		{popA.Supply, popB.Supply},
		{a.Inflexible, b.Inflexible},
		{a.Schedule.Demand, b.Schedule.Demand},
	} {
		for i := 0; i < pair[0].Len(); i++ {
			if math.Float64bits(pair[0].Value(i)) != math.Float64bits(pair[1].Value(i)) {
				t.Fatalf("rerun differs at %v: %v vs %v", pair[0].TimeAt(i), pair[0].Value(i), pair[1].Value(i))
			}
		}
	}
	if a.NoFlex != b.NoFlex || a.Earliest != b.Earliest || a.Scheduled != b.Scheduled {
		t.Fatalf("metrics differ: %+v vs %+v", a, b)
	}
	if a.Inflexible.Resolution() != grid || len(a.Offers) == 0 {
		t.Fatalf("inflexible at %v with %d offers", a.Inflexible.Resolution(), len(a.Offers))
	}
	if a.Scheduled.UnmatchedDemand > a.NoFlex.UnmatchedDemand {
		t.Errorf("scheduling increased unmatched demand: %v -> %v", a.NoFlex.UnmatchedDemand, a.Scheduled.UnmatchedDemand)
	}
}

// TestRescheduleOnActualSupply: rescheduling against the supply itself
// reproduces the scheduled imbalance.
func TestRescheduleOnActualSupply(t *testing.T) {
	pop, err := Simulate(5, 2, 9, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pop.Run(frequency(pop))
	if err != nil {
		t.Fatal(err)
	}
	m, err := out.Reschedule(pop.Supply)
	if err != nil {
		t.Fatal(err)
	}
	if m != out.Scheduled {
		t.Errorf("Reschedule(supply) = %+v, Run scheduled %+v", m, out.Scheduled)
	}
}
