package flexoffer

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestAppendJSONAllocations holds AppendJSON to no allocation when the
// buffer has room, and a nil offer to json.Marshal's null.
func TestAppendJSONAllocations(t *testing.T) {
	f := evOffer()
	f.ConsumerID = "house-01"
	f.TotalConstraint = &EnergyConstraint{Min: 1, Max: 2}
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(want))
	got, err := f.AppendJSON(buf)
	if err != nil || string(got) != string(want) {
		t.Fatalf("AppendJSON = %s, %v; want %s", got, err, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.AppendJSON(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendJSON allocates %.0f times with room in the buffer, want 0", allocs)
	}
	var none *FlexOffer
	null, _ := json.Marshal(none)
	if got, err := none.AppendJSON(nil); err != nil || string(got) != string(null) {
		t.Errorf("nil offer: AppendJSON = %s, %v; want %s", got, err, null)
	}
}

// TestCutJSONAllocations holds CutJSON to json.Unmarshal on AppendJSON's
// output, with and without the optional fields, and to one allocation
// each for the offer, its strings, its profile and its total constraint.
func TestCutJSONAllocations(t *testing.T) {
	full := evOffer()
	full.TotalConstraint = &EnergyConstraint{Min: 45, Max: 50}
	bare := evOffer()
	bare.ConsumerID, bare.Appliance = "", ""
	for _, tc := range []struct {
		name   string
		f      *FlexOffer
		allocs float64
	}{
		{"optional fields", full, 6},
		{"required fields only", bare, 3},
	} {
		data, err := tc.f.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		var want FlexOffer
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		got, rest, ok := CutJSON(append(data, ",tail"...))
		if !ok || string(rest) != ",tail" || !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s: CutJSON = %+v, %q, %v; want %+v and the tail", tc.name, got, rest, ok, &want)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, _, ok := CutJSON(data); !ok {
				t.Fatal("CutJSON refused AppendJSON's output")
			}
		}); allocs != tc.allocs {
			t.Errorf("%s: CutJSON allocates %.0f times, want %.0f", tc.name, allocs, tc.allocs)
		}
	}
}
