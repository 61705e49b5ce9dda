package market

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/flexoffer"
)

// FuzzSubmitBatch fuzzes the bulk ingest path with hostile batches —
// duplicate IDs (within the batch and against the store), nil offers,
// zero-slice profiles, lapsed acceptance deadlines — and checks the
// accounting invariants the retry path depends on: every offer is either
// accepted or named in Failures exactly once, failure indices stay
// in-range and sorted, and resubmitting the same batch accepts nothing
// new.
func FuzzSubmitBatch(f *testing.F) {
	f.Add(8, 3, int64(time.Hour), 4, uint8(0))
	f.Add(0, 0, int64(0), 0, uint8(0))          // empty batch
	f.Add(5, 1, int64(time.Hour), 4, uint8(1))  // every ID collides
	f.Add(6, 2, int64(-time.Hour), 4, uint8(2)) // lapsed deadlines
	f.Add(7, 3, int64(time.Hour), 0, uint8(4))  // zero-slice profiles
	f.Add(16, 4, int64(time.Minute), 2, uint8(7))
	f.Add(3, 2, int64(time.Hour), 1, uint8(8)) // nil offers sprinkled in

	f.Fuzz(func(t *testing.T, n, dupEvery int, leadNs int64, slices int, mutate uint8) {
		if n < 0 || n > 64 || slices < 0 || slices > 32 {
			return // batch shape is under caller control; bound the allocation
		}
		origin := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
		store := NewStore(func() time.Time { return origin })

		batch := make(flexoffer.Set, 0, n)
		for i := 0; i < n; i++ {
			if mutate&8 != 0 && i%5 == 4 {
				batch = append(batch, nil)
				continue
			}
			id := "fuzz"
			if dupEvery <= 0 || i%max(dupEvery, 1) != 0 {
				id = "fuzz-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			}
			if mutate&2 != 0 && i%3 == 0 {
				// Lapsed acceptance deadline relative to the fixed clock.
				batch = append(batch, fuzzOffer(id, origin.Add(-24*time.Hour), time.Duration(leadNs), slices))
				continue
			}
			fo := fuzzOffer(id, origin, time.Duration(leadNs), slices)
			if mutate&4 != 0 && i%4 == 2 {
				fo.Profile = nil // zero slices: must be rejected, never panic
			}
			batch = append(batch, fo)
		}

		res := store.SubmitBatch(batch)

		if res.Submitted != len(batch) {
			t.Fatalf("Submitted = %d, batch has %d", res.Submitted, len(batch))
		}
		if res.Accepted+len(res.Failures) != len(batch) {
			t.Fatalf("accepted %d + failures %d != %d", res.Accepted, len(res.Failures), len(batch))
		}
		seen := make(map[int]bool, len(res.Failures))
		for i, fl := range res.Failures {
			if fl.Index < 0 || fl.Index >= len(batch) {
				t.Fatalf("failure index %d out of range [0,%d)", fl.Index, len(batch))
			}
			if seen[fl.Index] {
				t.Fatalf("index %d failed twice", fl.Index)
			}
			seen[fl.Index] = true
			if i > 0 && res.Failures[i-1].Index >= fl.Index {
				t.Fatalf("failures out of submission order: %+v", res.Failures)
			}
			if fl.Err == nil {
				t.Fatalf("failure %d carries nil error", fl.Index)
			}
			if batch[fl.Index] != nil && fl.ID != batch[fl.Index].ID {
				t.Fatalf("failure %d attributed to %q, offer is %q", fl.Index, fl.ID, batch[fl.Index].ID)
			}
		}
		if got := len(res.FailedOffers(batch)); got != len(res.Failures) {
			t.Fatalf("FailedOffers returned %d offers for %d failures", got, len(res.Failures))
		}
		if got := len(store.List()); got != res.Accepted {
			t.Fatalf("store holds %d records, result says %d accepted", got, res.Accepted)
		}
		stats := store.Stats()
		if stats.Offered != res.Accepted {
			t.Fatalf("Stats.Offered = %d, want %d", stats.Offered, res.Accepted)
		}

		// Resubmitting the identical batch must accept nothing new: every
		// previously accepted ID is now a duplicate.
		again := store.SubmitBatch(batch)
		if again.Accepted != 0 {
			t.Fatalf("resubmission accepted %d offers", again.Accepted)
		}
		if got := len(store.List()); got != res.Accepted {
			t.Fatalf("resubmission changed store size: %d, want %d", got, res.Accepted)
		}
	})
}

// FuzzDecodeEvent holds the hand decoder (cutSubmitEvent and
// flexoffer.CutJSON) to json.Unmarshal, the reference decodeEvent falls
// back to: whenever the hand decoder accepts a payload, json.Unmarshal
// must accept it too and decode a reflect.DeepEqual event, and both must
// re-encode to the same bytes, which keeps -0 apart from 0. The seeds are
// encode's output for offers with and without the optional fields, nil
// and empty profiles, zone offsets, fractional seconds, exponent floats
// and -0, plus hand-edited payloads with escapes, leading zeros,
// non-ASCII strings, whitespace and other kinds of event.
func FuzzDecodeEvent(f *testing.F) {
	at := time.Date(2012, 6, 3, 10, 4, 5, 123456789, time.FixedZone("CEST", 2*60*60))
	plain := fuzzOffer("house-01/peak-0001", at, time.Hour, 4)
	full := fuzzOffer("house-02/peak-0002", at.UTC(), 24*time.Hour, 2)
	full.ConsumerID, full.Appliance = "house-02", "dish washer"
	full.TotalConstraint = &flexoffer.EnergyConstraint{Min: 1e-7, Max: 1e21}
	full.Profile[0].MinEnergy, full.Profile[0].MaxEnergy = math.Copysign(0, -1), 0.7000000000000001
	full.Profile[1].MinEnergy, full.Profile[1].MaxEnergy = 2.5e-10, 123456.789
	zoned := fuzzOffer("house-03/peak-0003", at.In(time.FixedZone("", -(7*3600+30*60))), time.Hour, 1)
	nilProfile := fuzzOffer("nil-profile", at, time.Hour, 0)
	nilProfile.Profile = nil
	emptyProfile := fuzzOffer("empty-profile", at, time.Hour, 0)
	escaped := fuzzOffer("<house&4>/peak-0004", at, time.Hour, 1)
	escaped.ConsumerID, escaped.Appliance = "caf\u00e9", "dish <washer> & dryer"
	for _, set := range []flexoffer.Set{{plain}, {full}, {zoned}, {nilProfile}, {emptyProfile}, {escaped}, {plain, full, zoned}} {
		raws := make([]json.RawMessage, len(set))
		for i, o := range set {
			raws[i] = marshalOffer(o)
		}
		payload, err := event{Kind: evSubmit, At: at, Offers: set, offersRaw: raws}.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	plainJSON, err := event{Kind: evSubmit, At: at, Offers: flexoffer.Set{plain}}.encode()
	if err != nil {
		f.Fatal(err)
	}
	for _, edit := range [][2]string{
		{`"duration":900000000000`, `"duration":0900000000000`},
		{`"duration":900000000000`, `"duration":9e11`},
		{`"min_energy_kwh":0.5`, `"min_energy_kwh":05e-1`},
		{`"min_energy_kwh":0.5`, `"min_energy_kwh":-0.5E+0`},
		{`"max_energy_kwh":1`, `"max_energy_kwh":1.`},
		{`"max_energy_kwh":1`, `"max_energy_kwh":1e400`},
		{`"id":"house-01/peak-0001"`, `"id":"café"`},
		{`"id":"house-01/peak-0001"`, `"id":"h\u00e9"`},
		{`"id":"house-01/peak-0001"`, `"id":"house-01","consumer_id":""`},
		{`.123456789+02:00"`, `.1+02:00"`},
		{`.123456789+02:00"`, `Z"`},
		{`"profile":[`, `"profile": [`},
		{`"kind":"submit"`, `"kind":"Submit"`},
		{`],"start"`, `],"Start"`},
	} {
		f.Add(bytes.Replace(plainJSON, []byte(edit[0]), []byte(edit[1]), 1))
	}
	f.Add([]byte(`{"kind":"decide","at":"2012-06-03T10:04:05Z","id":"a","to":"accepted","start":"0001-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"kind":"submit","at":"2012-06-03T10:04:05Z","start":"0001-01-01T00:00:00Z"}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, ok := cutSubmitEvent(payload)
		if !ok {
			return
		}
		var want event
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("hand decoder accepts %s, json.Unmarshal refuses it: %v", payload, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hand decoder and json.Unmarshal differ on %s:\n got %+v\nwant %+v", payload, got, want)
		}
		gotJSON, gerr := json.Marshal(got)
		wantJSON, werr := json.Marshal(want)
		if gerr != nil || werr != nil || !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("re-encodings differ on %s:\n got %s (%v)\nwant %s (%v)", payload, gotJSON, gerr, wantJSON, werr)
		}
	})
}

// fuzzOffer builds an offer whose deadlines sit lead after origin; the
// result may be invalid (negative lead, zero slices) by design.
func fuzzOffer(id string, origin time.Time, lead time.Duration, slices int) *flexoffer.FlexOffer {
	return &flexoffer.FlexOffer{
		ID:             id,
		CreationTime:   origin,
		AcceptanceTime: origin.Add(lead),
		AssignmentTime: origin.Add(lead),
		EarliestStart:  origin.Add(lead + time.Hour),
		LatestStart:    origin.Add(lead + 5*time.Hour),
		Profile:        flexoffer.UniformProfile(slices, 15*time.Minute, 0.5, 1.0),
	}
}
