package flexoffer

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func smallOffer(id string, start time.Time, energy float64) *FlexOffer {
	return &FlexOffer{
		ID:            id,
		EarliestStart: start,
		LatestStart:   start.Add(2 * time.Hour),
		Profile:       UniformProfile(2, 15*time.Minute, energy/2, energy/2),
	}
}

func TestSetTotalAvgEnergy(t *testing.T) {
	set := Set{smallOffer("a", t0, 2), smallOffer("b", t0, 3)}
	if got := set.TotalAvgEnergy(); !almostEqual(got, 5, 1e-9) {
		t.Errorf("TotalAvgEnergy = %v, want 5", got)
	}
}

func TestSetValidate(t *testing.T) {
	set := Set{smallOffer("a", t0, 2)}
	if err := set.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := smallOffer("b", t0, 2)
	bad.Profile = nil
	set = append(set, bad)
	if err := set.Validate(); err == nil {
		t.Error("Validate accepted invalid offer")
	}
}

func TestSortByEarliestStart(t *testing.T) {
	set := Set{
		smallOffer("b", t0.Add(time.Hour), 1),
		smallOffer("c", t0, 1),
		smallOffer("a", t0, 1),
	}
	set.SortByEarliestStart()
	ids := []string{set[0].ID, set[1].ID, set[2].ID}
	if ids[0] != "a" || ids[1] != "c" || ids[2] != "b" {
		t.Errorf("sorted order = %v", ids)
	}
}

func TestPlacementSeries(t *testing.T) {
	set := Set{smallOffer("a", t0, 4), smallOffer("b", t0.Add(time.Hour), 8)}
	ps, err := set.PlacementSeries(t0, 15*time.Minute, 8)
	if err != nil {
		t.Fatalf("PlacementSeries: %v", err)
	}
	// Offer a: 4 kWh over first two intervals; offer b: 8 kWh at +1h.
	if !almostEqual(ps.Value(0), 2, 1e-9) || !almostEqual(ps.Value(4), 4, 1e-9) {
		t.Errorf("placement = %v", ps.Values())
	}
	if !almostEqual(ps.Total(), 12, 1e-9) {
		t.Errorf("placement total = %v, want 12", ps.Total())
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	set := Set{smallOffer("a", t0, 2), smallOffer("b", t0.Add(time.Hour), 3)}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(got) != 2 || got[0].ID != "a" || !almostEqual(got[1].TotalAvgEnergy(), 3, 1e-9) {
		t.Errorf("round trip = %v", got)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`[{"id":"x","profile":[]}]`)); err == nil {
		t.Error("ReadJSON accepted empty profile")
	}
	if _, err := ReadJSON(strings.NewReader(`{not json`)); err == nil {
		t.Error("ReadJSON accepted malformed JSON")
	}
}
