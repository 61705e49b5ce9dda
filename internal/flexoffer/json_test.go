package flexoffer

import (
	"encoding/json"
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
