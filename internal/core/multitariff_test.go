package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/household"
	"repro/internal/tariff"
	"repro/internal/timeseries"
)

var (
	testReg = appliance.Default()
	testToU = tariff.TimeOfUse{HighPrice: 0.40, LowPrice: 0.15, LowStartHour: 22, LowEndHour: 6}
)

func pairedSeries(t *testing.T, shiftProb float64, days int) (one, multi *timeseries.Series) {
	t.Helper()
	cfg := household.Config{
		ID: "mt-test", Residents: 3,
		Appliances: []string{"washing machine Y", "dishwasher Z", "television", "refrigerator"},
		BaseLoadKW: 0.25, MorningPeak: 0.8, EveningPeak: 1.2, NoiseStd: 0.08,
		Seed: 21,
	}
	flat, shifted, err := household.SimulatePair(testReg, cfg, testToU,
		tariff.Response{ShiftProbability: shiftProb}, paperTime(), days, 15*time.Minute)
	if err != nil {
		t.Fatalf("SimulatePair: %v", err)
	}
	return flat.Total, shifted.Total
}

func paperTime() time.Time { return time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC) }

func TestMultiTariffExtractsInLowWindow(t *testing.T) {
	one, multi := pairedSeries(t, 0.9, 28)
	e := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU}
	res, err := e.ExtractPair(one, multi)
	if err != nil {
		t.Fatalf("ExtractPair: %v", err)
	}
	if len(res.Offers) == 0 {
		t.Fatal("no offers extracted despite 90% shifting")
	}
	if err := res.Offers.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every offer starts inside the low-tariff window (that is where the
	// delayed consumption shows up).
	for _, f := range res.Offers {
		if !testToU.IsLow(f.EarliestStart) {
			t.Errorf("offer %s starts at %v, outside low window", f.ID, f.EarliestStart)
		}
	}
}

func TestMultiTariffEnergyAccounting(t *testing.T) {
	one, multi := pairedSeries(t, 0.9, 28)
	oneBefore := one.Clone()
	e := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU}
	res, err := e.ExtractPair(one, multi)
	if err != nil {
		t.Fatalf("ExtractPair: %v", err)
	}
	got := res.Modified.Total() + res.Offers.TotalAvgEnergy()
	if !almostEqual(got, multi.Total(), 1e-6) {
		t.Errorf("accounting: modified %v + offers %v != multi %v",
			res.Modified.Total(), res.Offers.TotalAvgEnergy(), multi.Total())
	}
	// The one-tariff reference is left unchanged.
	if !reflect.DeepEqual(one, oneBefore) {
		t.Error("ExtractPair modified the one-tariff reference series")
	}
	if res.Modified.Min() < 0 {
		t.Error("modified went negative")
	}
}

// TestMultiTariffShiftSensitivity: more shifting behaviour → more extracted
// flexible energy (the E6 sweep's expected shape).
func TestMultiTariffShiftSensitivity(t *testing.T) {
	extract := func(prob float64) float64 {
		one, multi := pairedSeries(t, prob, 28)
		e := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU}
		res, err := e.ExtractPair(one, multi)
		if err != nil {
			t.Fatalf("ExtractPair: %v", err)
		}
		return res.Offers.TotalAvgEnergy()
	}
	low := extract(0.1)
	high := extract(0.9)
	if high <= low {
		t.Errorf("extracted energy at p=0.9 (%v) not above p=0.1 (%v)", high, low)
	}
}

func TestMultiTariffNoShiftNearZeroExtraction(t *testing.T) {
	one, multi := pairedSeries(t, 0, 28)
	e := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU}
	res, err := e.ExtractPair(one, multi)
	if err != nil {
		t.Fatalf("ExtractPair: %v", err)
	}
	// Without behaviour change, only noise-level excess should appear.
	share := res.Offers.TotalAvgEnergy() / multi.Total()
	if share > 0.05 {
		t.Errorf("extracted %.1f%% without any shifting", share*100)
	}
}

func TestMultiTariffExtractWithoutReferenceFails(t *testing.T) {
	e := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU}
	if _, err := e.Extract(flatDay(1, 0.3)); !errors.Is(err, ErrInput) {
		t.Errorf("Extract without reference: %v", err)
	}
}

func TestMultiTariffInputValidation(t *testing.T) {
	e := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU}
	good := flatDay(7, 0.3)
	empty := timeseries.MustNew(paperTime(), 15*time.Minute, nil)
	if _, err := e.ExtractPair(empty, good); !errors.Is(err, ErrInput) {
		t.Errorf("empty reference: %v", err)
	}
	if _, err := e.ExtractPair(good, empty); !errors.Is(err, ErrInput) {
		t.Errorf("empty multi series: %v", err)
	}
	bad := &MultiTariffExtractor{Params: Params{}, Tariff: testToU}
	if _, err := bad.ExtractPair(good, good); !errors.Is(err, ErrParams) {
		t.Errorf("zero params: %v", err)
	}
}

func TestMultiTariffMinOfferEnergyFilters(t *testing.T) {
	one, multi := pairedSeries(t, 0.9, 28)
	strict := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU, MinOfferEnergy: 5}
	loose := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU, MinOfferEnergy: 0.05}
	rs, err := strict.ExtractPair(one, multi)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := loose.ExtractPair(one, multi)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Offers) >= len(rl.Offers) {
		t.Errorf("strict filter kept %d offers, loose %d", len(rs.Offers), len(rl.Offers))
	}
}

func TestMultiTariffName(t *testing.T) {
	if (&MultiTariffExtractor{}).Name() != "multi-tariff" {
		t.Error("name mismatch")
	}
}

func TestTypicalByDayTypeFallback(t *testing.T) {
	// A reference series covering only workdays: weekend lookups fall back
	// to the combined profile.
	workweek := timeseries.MustNew(paperTime(), 15*time.Minute, make([]float64, 5*96)) // Mon-Fri
	for i := 0; i < workweek.Len(); i++ {
		workweek.SetValue(i, 0.3)
	}
	profiles, err := typicalByDayType(workweek, 96)
	if err != nil {
		t.Fatal(err)
	}
	saturday := paperTime().Add(5 * 24 * time.Hour)
	if got := profiles.at(saturday, 10); got != 0.3 {
		t.Errorf("weekend fallback = %v, want 0.3", got)
	}
	// Workday phase hits the day-type profile directly.
	if got := profiles.at(paperTime(), 10); got != 0.3 {
		t.Errorf("workday lookup = %v", got)
	}
}

func TestMultiTariffRequiresMidnightStart(t *testing.T) {
	e := &MultiTariffExtractor{Params: DefaultParams(), Tariff: testToU}
	offsetSeries := timeseries.MustNew(paperTime().Add(3*time.Hour), 15*time.Minute, make([]float64, 96))
	good := flatDay(1, 0.3)
	if _, err := e.ExtractPair(offsetSeries, good); !errors.Is(err, ErrInput) {
		t.Errorf("offset reference accepted: %v", err)
	}
	if _, err := e.ExtractPair(good, offsetSeries); !errors.Is(err, ErrInput) {
		t.Errorf("offset multi series accepted: %v", err)
	}
}
