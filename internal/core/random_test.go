package core

import (
	"testing"

	"repro/internal/paperdata"
)

func TestRandomExtractOnePerDay(t *testing.T) {
	input := shapedDay(5)
	e := &RandomExtractor{Params: DefaultParams()}
	res, err := e.Extract(input)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(res.Offers) != 5 {
		t.Fatalf("offers = %d, want 5", len(res.Offers))
	}
	if err := res.Offers.Validate(); err != nil {
		t.Fatal(err)
	}
	got := res.Modified.Total() + res.Offers.TotalAvgEnergy()
	if !almostEqual(got, input.Total(), 1e-6) {
		t.Errorf("accounting: %v vs %v", got, input.Total())
	}
}

func TestRandomOffersPerDay(t *testing.T) {
	input := shapedDay(3)
	e := &RandomExtractor{Params: DefaultParams()}
	res, err := e.Extract(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Offers) != 3 {
		t.Errorf("offers = %d, want one a day, 3", len(res.Offers))
	}
	// Total flexible share still matches the configured percentage.
	share := res.Offers.TotalAvgEnergy() / input.Total()
	if !almostEqual(share, e.Params.FlexPercentage, 1e-9) {
		t.Errorf("share = %v", share)
	}
}

// TestRandomSpreadsUniformly: over many seeds, random offers cover most of
// the day rather than concentrating on peaks — the very property the paper
// criticises.
func TestRandomSpreadsUniformly(t *testing.T) {
	input := paperdata.Figure5Day()
	hours := make(map[int]bool)
	for seed := int64(0); seed < 150; seed++ {
		p := DefaultParams()
		p.Seed = seed
		e := &RandomExtractor{Params: p}
		res, err := e.Extract(input)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Offers {
			hours[f.EarliestStart.UTC().Hour()] = true
		}
	}
	if len(hours) < 18 {
		t.Errorf("random placement hit only %d distinct hours", len(hours))
	}
}

func TestRandomExtractErrors(t *testing.T) {
	e := &RandomExtractor{Params: Params{}}
	if _, err := e.Extract(shapedDay(1)); err == nil {
		t.Error("zero params succeeded")
	}
}

func TestRandomName(t *testing.T) {
	if (&RandomExtractor{}).Name() != "random" {
		t.Error("name mismatch")
	}
}
