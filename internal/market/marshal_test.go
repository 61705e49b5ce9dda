package market

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/wal"
)

// wireAssignment mirrors the trimmed assignment inside a record's wire
// form with default struct encoding.
type wireAssignment struct {
	Start    time.Time `json:"start"`
	Energies []float64 `json:"energies_kwh"`
}

// recordWire mirrors Record's wire form with the default encoding, so the
// test can pin the hand-built Record.MarshalJSON against what
// encoding/json would produce on the same shape.
type recordWire struct {
	Offer       *flexoffer.FlexOffer `json:"offer"`
	State       State                `json:"state"`
	SubmittedAt time.Time            `json:"submitted_at"`
	DecidedAt   time.Time            `json:"decided_at"`
	Assignment  *wireAssignment      `json:"assignment,omitempty"`
}

func wireOf(rec Record) recordWire {
	w := recordWire{Offer: rec.Offer, State: rec.State, SubmittedAt: rec.SubmittedAt, DecidedAt: rec.DecidedAt}
	if rec.Assignment != nil {
		w.Assignment = &wireAssignment{Start: rec.Assignment.Start, Energies: rec.Assignment.Energies}
	}
	return w
}

// TestRecordMarshalMatchesDefaultEncoding pins the hand-built
// Record.MarshalJSON byte-for-byte against the default struct encoding of
// the wire shape across lifecycle states. The journal's snapshot byte-identity property depends
// on this staying exact.
func TestRecordMarshalMatchesDefaultEncoding(t *testing.T) {
	clock := func() time.Time { return t0 }
	s := NewShardedStore(3, clock)

	f := testOffer("marshal-1")
	if err := s.Submit(f); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Accept(f.ID); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if _, err := s.Assign(f.ID, f.EarliestStart, []float64{1, 1, 1, 1}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	g := testOffer("marshal-2")
	if err := s.Submit(g); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	for _, id := range []string{"marshal-1", "marshal-2"} {
		rec, ok := s.Get(id)
		if !ok {
			t.Fatalf("Get(%s): not found", id)
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal record %s: %v", id, err)
		}
		want, err := json.Marshal(wireOf(rec))
		if err != nil {
			t.Fatalf("marshal wire %s: %v", id, err)
		}
		if string(got) != string(want) {
			t.Errorf("record %s: hand-built marshal diverges from default encoding\n got: %s\nwant: %s", id, got, want)
		}

		// The round trip must lose nothing: the decoded record carries the
		// full offer, the assignment reattaches that same offer, and a
		// re-encode is byte-identical (the snapshot-restore cycle).
		var back Record
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", id, err)
		}
		if !reflect.DeepEqual(back.Offer, rec.Offer) {
			t.Errorf("record %s: offer did not survive the round trip", id)
		}
		if rec.Assignment != nil {
			if back.Assignment == nil {
				t.Fatalf("record %s: assignment lost in round trip", id)
			}
			if back.Assignment.Offer != back.Offer {
				t.Errorf("record %s: assignment not reattached to the record's offer", id)
			}
			if !back.Assignment.Start.Equal(rec.Assignment.Start) ||
				!reflect.DeepEqual(back.Assignment.Energies, rec.Assignment.Energies) {
				t.Errorf("record %s: assignment fields diverged in round trip", id)
			}
			if err := back.Assignment.Validate(); err != nil {
				t.Errorf("record %s: round-tripped assignment invalid: %v", id, err)
			}
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal %s: %v", id, err)
		}
		if string(again) != string(got) {
			t.Errorf("record %s: decode/encode round trip not byte-identical\n got: %s\nwant: %s", id, again, got)
		}
	}

	// The page stitcher must agree with the default encoding of its
	// shape too (records array plus optional cursor).
	page, err := s.Page(ListQuery{Limit: 1})
	if err != nil {
		t.Fatalf("Page: %v", err)
	}
	if page.NextCursor == "" {
		t.Fatal("expected a continuation cursor")
	}
	got, err := json.Marshal(page)
	if err != nil {
		t.Fatalf("marshal page: %v", err)
	}
	var wire struct {
		Records    []recordWire `json:"records"`
		NextCursor string       `json:"next_cursor,omitempty"`
	}
	for _, r := range page.Records {
		wire.Records = append(wire.Records, wireOf(r))
	}
	wire.NextCursor = page.NextCursor
	want, err := json.Marshal(wire)
	if err != nil {
		t.Fatalf("marshal page wire: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("page: hand-built marshal diverges from default encoding\n got: %s\nwant: %s", got, want)
	}
}

// TestSubmitJournalBytesMatchDefaultEncoding reads back every payload
// Submit and SubmitBatch journaled on a 4-shard store and pins each, byte
// for byte, to json.Marshal of the same event. The IDs hold characters
// encoding/json HTML-escapes, and the clock has a non-UTC offset and
// nanoseconds. This equality is what lets a journal written with
// json.Marshal recover under the hand-assembled encoding, and the
// reverse.
func TestSubmitJournalBytesMatchDefaultEncoding(t *testing.T) {
	now := time.Date(2012, 6, 3, 10, 4, 5, 123456789, time.FixedZone("CEST", 2*60*60))
	s, j, err := OpenJournaled(JournalOptions{Dir: t.TempDir(), Shards: 4, Policy: wal.SyncNever, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	offer := func(i int) *flexoffer.FlexOffer {
		f := fuzzOffer(fmt.Sprintf("<house&%d>/peak-%04d", i, i), now, 24*time.Hour, 1+i%3)
		f.ConsumerID = fmt.Sprintf("<house&%d>", i)
		return f
	}
	single := offer(0)
	if err := s.Submit(single); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	batch := flexoffer.Set{offer(0)} // a duplicate: journaled by Submit only
	for i := 1; i <= 12; i++ {
		batch = append(batch, offer(i))
	}
	if res := s.SubmitBatch(batch); res.Accepted != 12 || res.Rejected() != 1 {
		t.Fatalf("SubmitBatch accepted %d and rejected %d, want 12 and 1", res.Accepted, res.Rejected())
	}

	// The events each shard's stream must hold, in order: Submit's, then
	// the batch's subset for that shard in submission order.
	want := make([][]event, s.ShardCount())
	k := s.ShardIndex(single.ID)
	want[k] = append(want[k], event{Kind: evSubmit, At: now, Offers: flexoffer.Set{single}})
	byShard := make([]flexoffer.Set, s.ShardCount())
	for _, f := range batch[1:] {
		byShard[s.ShardIndex(f.ID)] = append(byShard[s.ShardIndex(f.ID)], f)
	}
	for k, set := range byShard {
		if len(set) > 0 {
			want[k] = append(want[k], event{Kind: evSubmit, At: now, Offers: set})
		}
	}
	for k, js := range j.shards {
		var got [][]byte
		if err := js.log.ReplayFrom(0, func(_ uint64, payload []byte) error {
			got = append(got, bytes.Clone(payload))
			return nil
		}); err != nil {
			t.Fatalf("shard %d replay: %v", k, err)
		}
		if len(got) != len(want[k]) {
			t.Fatalf("shard %d journaled %d events, want %d", k, len(got), len(want[k]))
		}
		for i, ev := range want[k] {
			exp, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i], exp) {
				t.Errorf("shard %d event %d:\n got %s\nwant %s", k, i, got[i], exp)
			}
		}
	}
	if raw, _ := json.Marshal(single); !bytes.Contains(raw, []byte(`\u003chouse\u0026`)) {
		t.Fatal("the IDs no longer exercise encoding/json's HTML escaping")
	}
}

// TestJournaledSubmitEventsTakeHandDecoder holds encode,
// flexoffer.AppendJSON and the hand decoder in step: a 4-shard journal
// written by Submit and SubmitBatch, for offers with and without the
// optional fields, under a clock with a zone offset and nanoseconds,
// recovers with every event hand-decoded, each payload decoding to what
// json.Unmarshal gives. The differential fuzz target passes whichever
// path a payload takes, so without this test a change to either encoder
// could lose the hand path silently.
func TestJournaledSubmitEventsTakeHandDecoder(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: t0.Add(123456789).In(time.FixedZone("CEST", 2*60*60))}
	offer := func(i int) *flexoffer.FlexOffer {
		f := fuzzOffer(fmt.Sprintf("house-%03d/peak-%04d", i%7, i), clock.Now(), 24*time.Hour, 1+i%8)
		switch i % 4 {
		case 1:
			f.ConsumerID = fmt.Sprintf("house-%03d", i%7)
		case 2:
			f.ConsumerID, f.Appliance = fmt.Sprintf("house-%03d", i%7), "dish washer"
			f.Profile[0].MinEnergy, f.Profile[0].MaxEnergy = 1e-7, 0.7000000000000001
		case 3:
			f.TotalConstraint = &flexoffer.EnergyConstraint{Min: f.TotalMinEnergy(), Max: f.TotalMaxEnergy()}
			f.Profile[0].MinEnergy = math.Copysign(0, -1)
		}
		return f
	}
	s1, j1 := openTestJournaled(t, dir, clock, JournalOptions{Shards: 4})
	for i := 0; i < 8; i++ {
		if err := s1.Submit(offer(i)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	var batch flexoffer.Set
	for i := 8; i < 40; i++ {
		batch = append(batch, offer(i))
	}
	if res := s1.SubmitBatch(batch); res.Accepted != len(batch) {
		t.Fatalf("SubmitBatch accepted %d of %d: %v", res.Accepted, len(batch), res.FirstErr())
	}
	for k, js := range j1.shards {
		if err := js.log.ReplayFrom(0, func(lsn uint64, payload []byte) error {
			got, hand, err := decodeEvent(payload)
			var want event
			if jerr := json.Unmarshal(payload, &want); err != nil || jerr != nil || !hand {
				t.Fatalf("shard %d lsn %d: decodeEvent hand=%v err=%v, json.Unmarshal err=%v: %s", k, lsn, hand, err, jerr, payload)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shard %d lsn %d: hand decoder gives %+v, json.Unmarshal %+v", k, lsn, got, want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := stateImage(t, s1)
	closeLogs(t, j1) // a crash: no final snapshot, so the whole journal replays

	s2, j2 := openTestJournaled(t, dir, clock, JournalOptions{Shards: 4})
	rec := j2.Recovery()
	if rec.SnapshotUsed || rec.EventsReplayed == 0 || rec.EventsHandDecoded != rec.EventsReplayed {
		t.Fatalf("recovery replayed %d events, %d of them hand-decoded (snapshot used: %v); want every one, from the journal alone",
			rec.EventsReplayed, rec.EventsHandDecoded, rec.SnapshotUsed)
	}
	if after := stateImage(t, s2); !bytes.Equal(after, before) {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", after, before)
	}
}

// BenchmarkSubmitBatchJournaled submits one seed file's worth of offers,
// 28 eight-slice offers, into a 4-shard journal that does not fsync: the
// encoding and journaling cost of mirabeld's -seed-dir path per series.
func BenchmarkSubmitBatchJournaled(b *testing.B) {
	now := time.Date(2012, 6, 3, 0, 0, 0, 0, time.UTC)
	s, j, err := OpenJournaled(JournalOptions{Dir: b.TempDir(), Shards: 4, Policy: wal.SyncNever, Clock: func() time.Time { return now }})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	sets := make([]flexoffer.Set, b.N)
	for i := range sets {
		for k := 0; k < 28; k++ {
			sets[i] = append(sets[i], fuzzOffer(fmt.Sprintf("house-%06d/peak-%04d", i, k), now, 24*time.Hour, 8))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, set := range sets {
		if res := s.SubmitBatch(set); res.Accepted != len(set) {
			b.Fatal(res.FirstErr())
		}
	}
}
