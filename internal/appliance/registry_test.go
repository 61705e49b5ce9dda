package appliance

import (
	"testing"
	"time"
)

func TestDefaultRegistryValid(t *testing.T) {
	r := Default()
	if r.Len() < 11 {
		t.Fatalf("default registry has %d appliances, want >= 11", r.Len())
	}
	for _, a := range r.All() {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestTable1Rows checks the six rows of the paper's Table 1 are present with
// the published energy consumption ranges.
func TestTable1Rows(t *testing.T) {
	r := Default()
	rows := []struct {
		name     string
		min, max float64
	}{
		{"vacuum cleaning robot X", 0.5, 1.0},
		{"washing machine Y", 1.2, 3.0},
		{"dishwasher Z", 1.2, 2.0},
		{"small electric vehicle", 30, 50},
		{"medium electric vehicle", 50, 60},
		{"large electric vehicle", 60, 70},
	}
	for _, row := range rows {
		a, ok := r.Get(row.name)
		if !ok {
			t.Errorf("missing Table 1 appliance %q", row.name)
			continue
		}
		if a.MinRunEnergy != row.min || a.MaxRunEnergy != row.max {
			t.Errorf("%s: range [%v, %v], want [%v, %v]",
				row.name, a.MinRunEnergy, a.MaxRunEnergy, row.min, row.max)
		}
	}
}

// TestRoombaExample checks the paper's §4.1 example: the vacuum robot runs
// once per day with 22 hours of time flexibility.
func TestRoombaExample(t *testing.T) {
	r := Default()
	a, ok := r.Get("vacuum cleaning robot X")
	if !ok {
		t.Fatal("missing vacuum robot")
	}
	if a.RunsPerDay != 1.0 {
		t.Errorf("RunsPerDay = %v, want 1", a.RunsPerDay)
	}
	if a.TimeFlexibility != 22*time.Hour {
		t.Errorf("TimeFlexibility = %v, want 22h", a.TimeFlexibility)
	}
	if !a.Flexible {
		t.Error("robot not flexible")
	}
}

func TestRegistryAddDuplicate(t *testing.T) {
	r := NewRegistry()
	a := testAppliance()
	if err := r.Add(a); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := r.Add(a); err == nil {
		t.Error("duplicate Add succeeded")
	}
}

func TestRegistryAddInvalid(t *testing.T) {
	r := NewRegistry()
	a := testAppliance()
	a.Envelope = nil
	if err := r.Add(a); err == nil {
		t.Error("invalid Add succeeded")
	}
	if r.Len() != 0 {
		t.Error("invalid appliance registered")
	}
}

func TestRegistryLookupAndOrder(t *testing.T) {
	r := Default()
	if _, ok := r.Get("no such appliance"); ok {
		t.Error("Get of missing appliance returned ok")
	}
	all := r.All()
	if all[0].Name != "vacuum cleaning robot X" {
		t.Errorf("insertion order broken: first = %s", all[0].Name)
	}
}

func TestFlexibleAndByCategory(t *testing.T) {
	r := Default()
	for _, a := range r.Flexible() {
		if !a.Flexible {
			t.Errorf("%s returned by Flexible but not flexible", a.Name)
		}
	}
	// Fridge, oven and TV must not be flexible.
	for _, name := range []string{"refrigerator", "oven", "television"} {
		a, ok := r.Get(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if a.Flexible {
			t.Errorf("%s should be inflexible", name)
		}
	}
}

// TestEVChargeDurations checks EV envelopes cover multi-hour charges, which
// the Fig. 1 scenario depends on.
func TestEVChargeDurations(t *testing.T) {
	r := Default()
	tests := map[string]time.Duration{
		"small electric vehicle":  6 * time.Hour,
		"medium electric vehicle": 7 * time.Hour,
		"large electric vehicle":  8 * time.Hour,
	}
	for name, want := range tests {
		a, _ := r.Get(name)
		if got := a.RunDuration(); got != want {
			t.Errorf("%s duration = %v, want %v", name, got, want)
		}
	}
}
