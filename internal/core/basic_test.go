package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// shapedDay builds days of 15-minute data with a realistic morning/evening
// shape.
func shapedDay(days int) *timeseries.Series { return shapedSeries(days, 15*time.Minute) }

// shapedSeries builds days of data at the given resolution with
// shapedDay's morning/evening shape.
func shapedSeries(days int, res time.Duration) *timeseries.Series {
	perDay := int(24 * time.Hour / res)
	vals := make([]float64, days*perDay)
	for i := range vals {
		h := float64(i%perDay) * res.Hours()
		vals[i] = 0.25 + 0.3*math.Exp(-(h-7.5)*(h-7.5)/4) + 0.5*math.Exp(-(h-19)*(h-19)/8)
	}
	return timeseries.MustNew(t0, res, vals)
}

func TestBasicExtractFigure4Shape(t *testing.T) {
	// One day, 6-hour periods → four offers, as in Fig. 4.
	input := shapedDay(1)
	e := &BasicExtractor{Params: DefaultParams()}
	res, err := e.Extract(input)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(res.Offers) != 4 {
		t.Fatalf("offers = %d, want 4 (one per 6h period)", len(res.Offers))
	}
	if err := res.Offers.Validate(); err != nil {
		t.Fatalf("offers invalid: %v", err)
	}
	// Each offer sits in its own period.
	for i, f := range res.Offers {
		periodStart := t0.Add(time.Duration(i) * 6 * time.Hour)
		periodEnd := periodStart.Add(6 * time.Hour)
		if f.EarliestStart.Before(periodStart) || !f.EarliestStart.Before(periodEnd) {
			t.Errorf("offer %d earliest start %v outside period [%v, %v)", i, f.EarliestStart, periodStart, periodEnd)
		}
		// Profile fits in the period.
		if f.EarliestStart.Add(f.Duration()).After(periodEnd) {
			t.Errorf("offer %d profile spills out of its period", i)
		}
	}
}

// TestBasicExtractAllocations bounds the per-period scan's allocations.
// The same 28 days at 1 minute (40,320 slices) may allocate only a few
// times more than at 15 minutes (2,688 slices), so nothing is allocated
// per slice; both yield 112 offers and stay within 8 allocations per offer
// plus a small constant. Every bound also holds under -race.
func TestBasicExtractAllocations(t *testing.T) {
	run := func(res time.Duration) (allocs float64, offers int) {
		p := DefaultParams()
		p.SliceDuration = res
		e := &BasicExtractor{Params: p}
		input := shapedSeries(28, res)
		allocs = testing.AllocsPerRun(20, func() {
			r, err := e.Extract(input)
			if err != nil {
				t.Fatal(err)
			}
			offers = len(r.Offers)
		})
		return allocs, offers
	}
	coarse, coarseOffers := run(15 * time.Minute)
	fine, fineOffers := run(time.Minute)
	t.Logf("Extract of 28 days: %.0f allocations at 15 min (%d offers), %.0f at 1 min (%d offers)", coarse, coarseOffers, fine, fineOffers)
	// The slack absorbs the race detector, which drops a random share of
	// sync.Pool puts (fmt's printer cache) and so adds a few allocations
	// per run; one allocation per slice would add 37,632.
	if fine > coarse+32 {
		t.Errorf("1-min run allocates %.0f times against %.0f at 15 min: an allocation per slice", fine, coarse)
	}
	for _, c := range []struct {
		allocs float64
		offers int
	}{{coarse, coarseOffers}, {fine, fineOffers}} {
		if c.offers != 112 {
			t.Errorf("%d offers, want 112 (four 6-hour periods a day)", c.offers)
		}
		if limit := float64(8*c.offers + 32); c.allocs > limit {
			t.Errorf("%.0f allocations for %d offers, want at most %.0f", c.allocs, c.offers, limit)
		}
	}
}

// TestBasicEnergyAccounting: the flexible energy moved into offers leaves
// the modified series exactly.
func TestBasicEnergyAccounting(t *testing.T) {
	input := shapedDay(7)
	e := &BasicExtractor{Params: DefaultParams()}
	res, err := e.Extract(input)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	got := res.Modified.Total() + res.Offers.TotalAvgEnergy()
	if !almostEqual(got, input.Total(), 1e-6) {
		t.Errorf("accounting: modified %v + offers %v != input %v",
			res.Modified.Total(), res.Offers.TotalAvgEnergy(), input.Total())
	}
	// Extracted share matches the configured percentage.
	share := res.Offers.TotalAvgEnergy() / input.Total()
	if !almostEqual(share, e.Params.FlexPercentage, 1e-9) {
		t.Errorf("extracted share = %v, want %v", share, e.Params.FlexPercentage)
	}
	// Modified stays non-negative.
	if res.Modified.Min() < 0 {
		t.Errorf("modified has negative values: %v", res.Modified.Min())
	}
	// Input untouched.
	if !almostEqual(input.Total(), shapedDay(7).Total(), 1e-12) {
		t.Error("input mutated")
	}
}

func TestBasicDeterministicBySeed(t *testing.T) {
	input := shapedDay(2)
	e1 := &BasicExtractor{Params: DefaultParams()}
	e2 := &BasicExtractor{Params: DefaultParams()}
	r1, err := e1.Extract(input)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Extract(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Offers) != len(r2.Offers) {
		t.Fatal("offer counts differ")
	}
	for i := range r1.Offers {
		if !r1.Offers[i].EarliestStart.Equal(r2.Offers[i].EarliestStart) {
			t.Fatal("same seed placed offers differently")
		}
	}
	p := DefaultParams()
	p.Seed = 99
	e3 := &BasicExtractor{Params: p}
	r3, err := e3.Extract(input)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Offers {
		if !r1.Offers[i].EarliestStart.Equal(r3.Offers[i].EarliestStart) ||
			r1.Offers[i].TimeFlexibility() != r3.Offers[i].TimeFlexibility() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical randomisation")
	}
}

func TestBasicProfileFollowsConsumptionShape(t *testing.T) {
	// A period with a strong spike: the offer's slice energies should not
	// be uniform.
	vals := make([]float64, 96)
	for i := range vals {
		vals[i] = 0.1
	}
	for i := 40; i < 48; i++ {
		vals[i] = 2.0
	}
	input := timeseries.MustNew(t0, 15*time.Minute, vals)
	p := DefaultParams()
	p.SliceJitter = 0
	p.SlicesPerOffer = 24 // full 6h period
	e := &BasicExtractor{Params: p}
	res, err := e.Extract(input)
	if err != nil {
		t.Fatal(err)
	}
	// Find the offer covering the spike period (period index 1: 06:00-12:00
	// covers intervals 24..48).
	offer := res.Offers[1]
	var maxE, minE float64 = 0, math.Inf(1)
	for _, s := range offer.Profile {
		if s.AvgEnergy() > maxE {
			maxE = s.AvgEnergy()
		}
		if s.AvgEnergy() < minE {
			minE = s.AvgEnergy()
		}
	}
	if maxE <= minE*2 {
		t.Errorf("profile flat despite spike: min %v, max %v", minE, maxE)
	}
}

func TestBasicPartialTrailingPeriod(t *testing.T) {
	// 1.5 days: the last period is half-length and must still work.
	vals := make([]float64, 96+48)
	for i := range vals {
		vals[i] = 0.3
	}
	input := timeseries.MustNew(t0, 15*time.Minute, vals)
	e := &BasicExtractor{Params: DefaultParams()}
	res, err := e.Extract(input)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(res.Offers) != 6 {
		t.Errorf("offers = %d, want 6", len(res.Offers))
	}
	got := res.Modified.Total() + res.Offers.TotalAvgEnergy()
	if !almostEqual(got, input.Total(), 1e-6) {
		t.Error("accounting broken with partial period")
	}
}

func TestBasicSkipsZeroEnergyPeriods(t *testing.T) {
	vals := make([]float64, 96)
	for i := 48; i < 96; i++ {
		vals[i] = 0.5
	}
	input := timeseries.MustNew(t0, 15*time.Minute, vals)
	e := &BasicExtractor{Params: DefaultParams()}
	res, err := e.Extract(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Offers) != 2 {
		t.Errorf("offers = %d, want 2 (two zero periods skipped)", len(res.Offers))
	}
}

func TestBasicExtractErrors(t *testing.T) {
	// 8 h slices divide a day but not the 6 h period.
	p := DefaultParams()
	p.SliceDuration = 8 * time.Hour
	e := &BasicExtractor{Params: p}
	if _, err := e.Extract(timeseries.MustNew(t0, 8*time.Hour, []float64{1})); !errors.Is(err, ErrParams) {
		t.Errorf("bad period: %v", err)
	}
	bad := BasicExtractor{Params: Params{}}
	if _, err := bad.Extract(shapedDay(1)); !errors.Is(err, ErrParams) {
		t.Errorf("zero params: %v", err)
	}
	e2 := &BasicExtractor{Params: DefaultParams()}
	hourly := timeseries.MustNew(t0, time.Hour, []float64{1, 2})
	if _, err := e2.Extract(hourly); !errors.Is(err, ErrInput) {
		t.Errorf("wrong resolution: %v", err)
	}
}

func TestBasicName(t *testing.T) {
	if (&BasicExtractor{}).Name() != "basic" {
		t.Error("name mismatch")
	}
}
