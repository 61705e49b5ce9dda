package flexoffer

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzOfferValidate fuzzes direct offer construction — the path extraction
// pipeline workers take. The contract: Validate never panics, and any offer
// it accepts can flow through the whole downstream API (clone, stringify,
// energy accounting, default assignment) without panicking a worker or
// yielding NaN energy totals.
func FuzzOfferValidate(f *testing.F) {
	base := time.Date(2012, 6, 4, 22, 0, 0, 0, time.UTC).Unix()
	f.Add(4, int64(15*time.Minute), 0.5, 1.0, base, int64(7*time.Hour), int64(12*time.Hour), int64(6*time.Hour), int64(2*time.Hour), 2.0, 3.0, false)
	f.Add(1, int64(-1), 2.0, 1.0, base, int64(0), int64(0), int64(0), int64(0), 0.0, 0.0, false)
	f.Add(0, int64(time.Hour), 0.0, 0.0, base, int64(-time.Hour), int64(0), int64(0), int64(0), 0.0, 0.0, false)
	f.Add(3, int64(time.Minute), math.NaN(), math.NaN(), base, int64(time.Hour), int64(0), int64(0), int64(0), math.NaN(), math.Inf(1), true)
	f.Add(8, int64(15*time.Minute), -2.0, -1.0, base, int64(time.Hour), int64(2*time.Hour), int64(time.Hour), int64(30*time.Minute), -20.0, -5.0, true)

	f.Fuzz(func(t *testing.T, nSlices int, sliceDur int64, minE, maxE float64,
		startUnix, windowNs, creationLeadNs, acceptLeadNs, assignLeadNs int64,
		totMin, totMax float64, withConstraint bool) {
		if nSlices < 0 || nSlices > 256 {
			return // profile length is under caller control; bound the allocation
		}
		earliest := time.Unix(startUnix%(1<<40), 0).UTC()
		fo := &FlexOffer{
			ID:             "fuzz",
			ConsumerID:     "c",
			CreationTime:   earliest.Add(-time.Duration(creationLeadNs)),
			AcceptanceTime: earliest.Add(-time.Duration(acceptLeadNs)),
			AssignmentTime: earliest.Add(-time.Duration(assignLeadNs)),
			EarliestStart:  earliest,
			LatestStart:    earliest.Add(time.Duration(windowNs)),
		}
		for i := 0; i < nSlices; i++ {
			// Vary the bounds per slice so inverted/NaN bounds can land on
			// any index, not just slice 0.
			lo, hi := minE, maxE
			if i%2 == 1 {
				lo, hi = lo/2, hi*2
			}
			fo.Profile = append(fo.Profile, Slice{Duration: time.Duration(sliceDur), MinEnergy: lo, MaxEnergy: hi})
		}
		if withConstraint {
			fo.TotalConstraint = &EnergyConstraint{Min: totMin, Max: totMax}
		}
		if err := fo.Validate(); err != nil {
			return // rejected; construction is allowed to fail, not to panic
		}
		// Accepted offers must survive the downstream API.
		c := fo.Clone()
		if err := c.Validate(); err != nil {
			t.Fatalf("clone of valid offer invalid: %v", err)
		}
		_ = fo.String()
		_ = fo.Duration()
		_ = fo.LatestEnd()
		if e := fo.TotalAvgEnergy(); math.IsNaN(e) {
			t.Fatalf("validated offer has NaN total energy: %+v", fo)
		}
		lo, hi := fo.EffectiveTotalBounds()
		if math.IsNaN(lo) || math.IsNaN(hi) {
			t.Fatalf("validated offer has NaN effective bounds [%v, %v]", lo, hi)
		}
		if _, err := fo.AssignDefault(fo.EarliestStart); err != nil {
			// Assignment may be infeasible (e.g. disjoint total constraint
			// after fitting); it must never panic.
			return
		}
	})
}

// FuzzReadJSON checks the set decoder never panics, only yields validated
// offers, and that accepted sets round-trip.
func FuzzReadJSON(f *testing.F) {
	f.Add(`[]`)
	f.Add(`[{"id":"a","earliest_start":"2012-06-04T22:00:00Z","latest_start":"2012-06-05T05:00:00Z","profile":[{"duration":900000000000,"min_energy_kwh":1,"max_energy_kwh":2}]}]`)
	f.Add(`[{"id":"bad","profile":[]}]`)
	f.Add(`{`)
	f.Add(`[{"id":"x","profile":[{"duration":-1,"min_energy_kwh":2,"max_energy_kwh":1}]}]`)
	f.Fuzz(func(t *testing.T, input string) {
		set, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		// Everything accepted must validate and round-trip.
		if err := set.Validate(); err != nil {
			t.Fatalf("accepted set fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf); err != nil {
			t.Fatalf("write after accept: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if len(back) != len(set) {
			t.Fatalf("round trip changed size: %d vs %d", len(back), len(set))
		}
	})
}

// FuzzOfferJSON holds AppendJSON to json.Marshal: for every offer both
// give the same bytes, or both fail with the same error. The seeds cover
// the fallback paths: strings encoding/json escapes (HTML characters,
// controls, non-ASCII, invalid UTF-8), zone offsets with seconds and of
// 24 hours or more, years outside 0000–9999, NaN and ±Inf, the float
// format's cut-offs (1e-7, 1e21), subnormals and -0, a nil and an empty
// profile, and TotalConstraint.
func FuzzOfferJSON(f *testing.F) {
	base := time.Date(2012, 6, 4, 22, 0, 0, 0, time.UTC).Unix()
	f.Add("house-01/peak-0001", "house-01", "", base, int64(0), 0, int64(15*time.Minute), 0.5, 1.25, 4, false, 0.0, 0.0)
	f.Add("<house&1>/peak\"2\"", "caf\u00e9\n", "dish\xffwasher\u2028", base, int64(123456789), 2*3600, int64(time.Minute), 1e-7, 1e21, 2, true, 5e-324, math.Copysign(0, -1))
	f.Add("a", "b", "c", base, int64(999999999), 3600+30, int64(-time.Second), math.NaN(), 1.0, 1, false, 0.0, 0.0)
	f.Add("a", "", "", base, int64(0), -(24*3600 + 60), int64(time.Hour), 0.0, 1.0, 1, false, 0.0, 0.0)
	f.Add("a", "", "", base, int64(0), 24*3600-1, int64(time.Hour), math.Inf(-1), math.Inf(1), 1, true, 1.0, 2.0)
	f.Add("a", "", "", int64(-62167219200-1), int64(0), 0, int64(time.Hour), 1.0, 2.0, 1, false, 0.0, 0.0)
	f.Add("a", "", "", int64(253402300800), int64(0), 0, int64(time.Hour), 1.0, 2.0, 1, false, 0.0, 0.0)
	f.Add("nil-profile", "", "", base, int64(0), 0, int64(0), 0.0, 0.0, -1, false, 0.0, 0.0)
	f.Add("empty-profile", "", "", base, int64(0), 0, int64(0), 0.0, 0.0, 0, true, math.NaN(), 1e-6)
	f.Add("subnormal", "\x7f", "", base, int64(1), -7*3600-59*60, int64(1), 2.2250738585072014e-308, 1.7976931348623157e308, 3, true, 999999999999999999999.0, 1e20)
	f.Fuzz(func(t *testing.T, id, consumer, appliance string, sec, nsec int64, offset int,
		dur int64, lo, hi float64, nSlices int, constraint bool, cmin, cmax float64) {
		if nSlices > 64 {
			return // profile length is under caller control; bound the work
		}
		zone := time.FixedZone("z", offset)
		at := func(i int64) time.Time { return time.Unix(sec+i*3600, nsec).In(zone) }
		fo := &FlexOffer{
			ID:             id,
			ConsumerID:     consumer,
			Appliance:      appliance,
			CreationTime:   at(0),
			AcceptanceTime: at(1).UTC(),
			AssignmentTime: at(2),
			EarliestStart:  at(3),
			LatestStart:    at(4),
		}
		if nSlices >= 0 {
			fo.Profile = make([]Slice, nSlices)
			for i := range fo.Profile {
				fo.Profile[i] = Slice{Duration: time.Duration(dur) * time.Duration(i+1), MinEnergy: lo / float64(i+1), MaxEnergy: hi * float64(i+1)}
			}
		}
		if constraint {
			fo.TotalConstraint = &EnergyConstraint{Min: cmin, Max: cmax}
		}
		want, wantErr := json.Marshal(fo)
		prefix := []byte("prefix:")
		got, gotErr := fo.AppendJSON(bytes.Clone(prefix))
		switch {
		case wantErr != nil || gotErr != nil:
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("errors differ: json.Marshal %v, AppendJSON %v", wantErr, gotErr)
			}
		case !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want):
			t.Fatalf("bytes differ:\n got %s\nwant %s", got, want)
		}
	})
}
