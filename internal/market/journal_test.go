package market

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/obs"
	"repro/internal/wal"
)

// openTestJournaled opens a journaled store over dir with the shared fake
// clock and registers cleanup.
func openTestJournaled(t *testing.T, dir string, clock *fakeClock, opts JournalOptions) (*Store, *Journal) {
	t.Helper()
	opts.Dir = dir
	opts.Clock = clock.Now
	s, j, err := OpenJournaled(opts)
	if err != nil {
		t.Fatalf("OpenJournaled: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return s, j
}

// driveLifecycle pushes a deterministic mix of transitions through the
// store: submits, accepts, a reject, one assignment, and an expiry sweep.
func driveLifecycle(t *testing.T, s *Store, clock *fakeClock) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("offer-%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.Accept(fmt.Sprintf("offer-%d", i)); err != nil {
			t.Fatalf("Accept %d: %v", i, err)
		}
	}
	if err := s.Reject("offer-4"); err != nil {
		t.Fatalf("Reject: %v", err)
	}
	if _, err := s.Assign("offer-0", t0.Add(6*time.Hour), midEnergies()); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	clock.Advance(3 * time.Hour) // past the acceptance deadline
	if n, err := s.ExpireOverdue(); err != nil || n == 0 {
		t.Fatalf("ExpireOverdue = (%d, %v), want expiries", n, err)
	}
}

// midEnergies builds the midpoint energy vector for testOffer profiles.
func midEnergies() []float64 {
	f := testOffer("template")
	energies := make([]float64, len(f.Profile))
	for k, sl := range f.Profile {
		energies[k] = (sl.MinEnergy + sl.MaxEnergy) / 2
	}
	return energies
}

// stateImage captures the full store state deterministically.
func stateImage(t *testing.T, s *Store) []byte {
	t.Helper()
	img, err := s.marshalState()
	if err != nil {
		t.Fatalf("marshalState: %v", err)
	}
	return img
}

// segmentFiles lists the WAL segment files under dir's shard
// subdirectories, oldest first.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	return segs
}

// closeLogs closes every shard stream directly, without a snapshot, as a
// crash would: recovery must come entirely from the WAL tails.
func closeLogs(t *testing.T, j *Journal) {
	t.Helper()
	for i, js := range j.shards {
		if err := js.log.Close(); err != nil {
			t.Fatalf("close shard %d log: %v", i, err)
		}
	}
}

func TestJournaledStoreRecoversFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: t0}
	s1, j1 := openTestJournaled(t, dir, clock, JournalOptions{})
	driveLifecycle(t, s1, clock)
	before := stateImage(t, s1)
	if err := j1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, j2 := openTestJournaled(t, dir, clock, JournalOptions{})
	if got := stateImage(t, s2); !bytes.Equal(got, before) {
		t.Fatalf("recovered state differs from the state at shutdown:\n got %s\nwant %s", got, before)
	}
	rec := j2.Recovery()
	// Close wrote a final snapshot, so recovery is snapshot-only.
	if !rec.SnapshotUsed || rec.EventsReplayed != 0 {
		t.Fatalf("recovery after clean shutdown = %+v, want snapshot and no replay", rec)
	}
	if rec.Offers != 8 {
		t.Fatalf("recovered %d offers, want 8", rec.Offers)
	}
	// The recovered store keeps enforcing lifecycle rules and journaling.
	clock.Advance(-3 * time.Hour) // back before the acceptance deadline
	if err := s2.Submit(testOffer("offer-0")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("resubmitting a recovered offer = %v, want ErrDuplicate", err)
	}
	clock.Advance(3 * time.Hour)
	if err := s2.Submit(testOffer("offer-9")); !errors.Is(err, ErrDeadline) {
		t.Fatalf("submit past the advanced clock = %v, want ErrDeadline", err)
	}
}

func TestJournaledStoreReplaysWALTailWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: t0}
	s1, j1 := openTestJournaled(t, dir, clock, JournalOptions{})
	driveLifecycle(t, s1, clock)
	before := stateImage(t, s1)
	closeLogs(t, j1)

	s2, j2 := openTestJournaled(t, dir, clock, JournalOptions{})
	if got := stateImage(t, s2); !bytes.Equal(got, before) {
		t.Fatalf("WAL-only recovery differs:\n got %s\nwant %s", got, before)
	}
	rec := j2.Recovery()
	if rec.SnapshotUsed || rec.EventsReplayed == 0 {
		t.Fatalf("recovery = %+v, want replay without snapshot", rec)
	}
}

// TestListingOrderSurvivesRestart: a state listing reads in shard-major
// submission order, not in the order its records entered the state, live,
// after a reopen that replays the WAL alone, and after a reopen from the
// final snapshot Close takes — through Store.List and through the bare
// GET /offers?state= listing.
func TestListingOrderSurvivesRestart(t *testing.T) {
	for _, row := range []struct {
		name           string
		shards         int
		submit, accept []string
		want           string
	}{
		{"1 shard", 1, []string{"a", "b", "c"}, []string{"c", "a", "b"}, "a,b,c"},
		// a and e route to shard 0, b to shard 1, c to shard 2.
		{"4 shards", 4, []string{"a", "b", "c", "e"}, []string{"e", "c", "a", "b"}, "a,e,b,c"},
	} {
		for _, restart := range []string{"live", "WAL-only reopen", "snapshot reopen"} {
			t.Run(row.name+"/"+restart, func(t *testing.T) {
				dir := t.TempDir()
				clock := &fakeClock{now: t0}
				s, j := openTestJournaled(t, dir, clock, JournalOptions{Shards: row.shards})
				for _, id := range row.submit {
					if err := s.Submit(testOffer(id)); err != nil {
						t.Fatalf("Submit %s: %v", id, err)
					}
				}
				for _, id := range row.accept {
					if err := s.Accept(id); err != nil {
						t.Fatalf("Accept %s: %v", id, err)
					}
				}
				switch restart {
				case "WAL-only reopen":
					closeLogs(t, j)
					s, j = openTestJournaled(t, dir, clock, JournalOptions{})
					if j.Recovery().SnapshotUsed {
						t.Fatal("reopen used a snapshot, want the WAL alone")
					}
				case "snapshot reopen":
					if err := j.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					s, j = openTestJournaled(t, dir, clock, JournalOptions{})
					if rec := j.Recovery(); !rec.SnapshotUsed || rec.EventsReplayed != 0 {
						t.Fatalf("recovery = %+v, want the final snapshot alone", rec)
					}
				}
				ids := func(recs []Record) string {
					out := make([]string, len(recs))
					for i, r := range recs {
						out[i] = r.Offer.ID
					}
					return strings.Join(out, ",")
				}
				if got := ids(s.List(Accepted)); got != row.want {
					t.Errorf("List(Accepted) = %s, want %s", got, row.want)
				}
				srv := httptest.NewServer(NewServer(s))
				defer srv.Close()
				var recs []Record
				if code := getJSON(t, srv, "/offers?state=accepted", &recs); code != http.StatusOK || ids(recs) != row.want {
					t.Errorf("GET /offers?state=accepted = %d %s, want 200 %s", code, ids(recs), row.want)
				}
			})
		}
	}
}

func TestAutomaticSnapshotsCompactTheLog(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: t0}
	// Tiny segments plus a snapshot every 4 events force both rotation
	// and background snapshots during a short lifecycle.
	s1, j1 := openTestJournaled(t, dir, clock, JournalOptions{SnapshotEvery: 4, SegmentBytes: 256})
	driveLifecycle(t, s1, clock)
	deadline := time.Now().Add(5 * time.Second)
	for j1.Stats().WAL.Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic snapshot was taken")
		}
		time.Sleep(time.Millisecond)
	}
	before := stateImage(t, s1)
	if err := j1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, _ := openTestJournaled(t, dir, clock, JournalOptions{SnapshotEvery: 4, SegmentBytes: 256})
	if got := stateImage(t, s2); !bytes.Equal(got, before) {
		t.Fatalf("recovery after auto-snapshots differs:\n got %s\nwant %s", got, before)
	}
}

// failingJournal is a journal hook that refuses every event.
func failingJournal(event) error { return errors.New("disk on fire") }

// TestJournalFailureLeavesStoreUnchanged covers every journalLocked call
// site: when the append fails, the call returns ErrJournal, the store's
// state is byte-identical to before, and a subscriber attached before the
// call sees no event. It is the run-time half of the write-ahead proof;
// the journaled receipt is the compile-time half.
func TestJournalFailureLeavesStoreUnchanged(t *testing.T) {
	cases := []struct {
		name    string
		advance time.Duration // clock step before the call
		call    func(s *Store) error
	}{
		{"Submit", 0, func(s *Store) error { return s.Submit(testOffer("new")) }},
		{"SubmitBatch", 0, func(s *Store) error {
			return s.SubmitBatch(flexoffer.Set{testOffer("b0"), testOffer("b1")}).FirstErr()
		}},
		{"Accept", 0, func(s *Store) error { return s.Accept("offered") }},
		{"Reject", 0, func(s *Store) error { return s.Reject("offered") }},
		{"Accept past acceptance deadline", 3 * time.Hour, func(s *Store) error { return s.Accept("offered") }},
		{"Assign", 0, func(s *Store) error {
			_, err := s.Assign("accepted", t0.Add(6*time.Hour), midEnergies())
			return err
		}},
		{"Assign past assignment deadline", 5 * time.Hour, func(s *Store) error {
			_, err := s.Assign("accepted", t0.Add(6*time.Hour), midEnergies())
			return err
		}},
		{"ExpireOverdue", 3 * time.Hour, func(s *Store) error {
			_, err := s.ExpireOverdue()
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clock := &fakeClock{now: t0}
			s := NewStore(clock.Now)
			for _, id := range []string{"offered", "accepted"} {
				if err := s.Submit(testOffer(id)); err != nil {
					t.Fatalf("Submit %s: %v", id, err)
				}
			}
			if err := s.Accept("accepted"); err != nil {
				t.Fatalf("Accept: %v", err)
			}
			before := stateImage(t, s)
			sub, _ := subscribeFolded(s, 0) // the replay bootstrap is folded, not queued
			defer sub.Close()

			s.setJournal(failingJournal)
			clock.Advance(c.advance)
			if err := c.call(s); !errors.Is(err, ErrJournal) {
				t.Fatalf("%s = %v, want ErrJournal", c.name, err)
			}
			if got := stateImage(t, s); !bytes.Equal(got, before) {
				t.Fatalf("journal failure mutated the store:\n got %s\nwant %s", got, before)
			}
			if ev, ok := sub.TryNext(); ok {
				t.Fatalf("journal failure published %s for %s", ev.Kind, ev.Offer.ID)
			}
		})
	}
}

func TestSubmitBatchJournalFailureFailsWholeBatch(t *testing.T) {
	clock := &fakeClock{now: t0}
	s := NewStore(clock.Now)
	s.setJournal(failingJournal)
	batch := flexoffer.Set{testOffer("b0"), testOffer("b1"), testOffer("b2")}
	res := s.SubmitBatch(batch)
	if res.Accepted != 0 || len(res.Failures) != len(batch) {
		t.Fatalf("BatchResult = %+v, want every offer failed", res)
	}
	if err := res.FirstErr(); !errors.Is(err, ErrJournal) {
		t.Fatalf("FirstErr = %v, want ErrJournal", err)
	}
	if failed := res.FailedOffers(batch); len(failed) != len(batch) {
		t.Fatalf("FailedOffers returned %d of %d", len(failed), len(batch))
	}
	if got := s.Stats(); got.Offered != 0 {
		t.Fatalf("store not empty after journal-failed batch: %+v", got)
	}
}

func TestStoreRefusesTransitionsAfterJournalClose(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: t0}
	s, j := openTestJournaled(t, dir, clock, JournalOptions{})
	if err := s.Submit(testOffer("a")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Submit(testOffer("b")); !errors.Is(err, ErrJournal) {
		t.Fatalf("Submit after Close = %v, want ErrJournal", err)
	}
	// Reads keep working on the frozen state.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("Get after Close lost the record")
	}
}

func TestApplyEventRejectsCorruptEvents(t *testing.T) {
	cases := map[string]event{
		"unknown kind":        {Kind: "explode"},
		"decide unknown id":   {Kind: evDecide, ID: "ghost", To: Accepted},
		"assign unknown id":   {Kind: evAssign, ID: "ghost"},
		"expire unknown id":   {Kind: evExpire, IDs: []string{"ghost"}},
		"submit nil offer":    {Kind: evSubmit, Offers: flexoffer.Set{nil}},
		"assign infeasible":   {Kind: evAssign, ID: "a", Start: t0.Add(6 * time.Hour), Energies: []float64{999}},
		"submit duplicate id": {Kind: evSubmit, Offers: flexoffer.Set{testOffer("a")}},
	}
	for name, ev := range cases {
		t.Run(name, func(t *testing.T) {
			clock := &fakeClock{now: t0}
			s := NewStore(clock.Now)
			if err := s.Submit(testOffer("a")); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if err := s.applyEvent(ev); err == nil {
				t.Fatalf("applyEvent(%s) accepted a corrupt event", name)
			}
		})
	}
	// An empty submit event is a harmless no-op, not corruption.
	s := NewStore(nil)
	if err := s.applyEvent(event{Kind: evSubmit}); err != nil {
		t.Fatalf("applyEvent(empty submit) = %v", err)
	}
}

func TestRestoreShardRejectsInconsistentSnapshots(t *testing.T) {
	s := NewShardedStore(4, nil)
	away := "offer-0" // an ID that routes to a shard other than 0
	for i := 1; s.ShardIndex(away) == 0; i++ {
		away = fmt.Sprintf("offer-%d", i)
	}
	offer, err := json.Marshal(testOffer(away))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"not json":                "{",
		"order too long":          `{"order":["a"],"records":{}}`,
		"order missing":           `{"order":["a"],"records":{"b":{"offer":null,"state":"offered"}}}`,
		"record no offer":         `{"order":["a"],"records":{"a":{"offer":null,"state":"offered"}}}`,
		"record of another shard": fmt.Sprintf(`{"order":[%q],"records":{%[1]q:{"offer":%s,"state":"offered"}}}`, away, offer),
	} {
		t.Run(name, func(t *testing.T) {
			err := s.restoreShard(0, []byte(data))
			if err == nil {
				t.Fatalf("restoreShard(0, %s) accepted a bad snapshot", data)
			}
			if name == "record of another shard" && !strings.Contains(err.Error(), "shard count changed?") {
				t.Errorf("error %q does not name the shard-count change", err)
			}
		})
	}
}

func TestCorruptInteriorJournalRefusedTornTailRepaired(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: t0}
	s1, j1 := openTestJournaled(t, dir, clock, JournalOptions{})
	for i := 0; i < 5; i++ {
		if err := s1.Submit(testOffer(fmt.Sprintf("offer-%d", i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// Crash without snapshot.
	closeLogs(t, j1)
	segs := segmentFiles(t, dir)
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}

	t.Run("torn tail repaired", func(t *testing.T) {
		if err := os.WriteFile(last, data[:len(data)-5], 0o644); err != nil {
			t.Fatalf("tear segment: %v", err)
		}
		s2, j2 := openTestJournaled(t, dir, clock, JournalOptions{})
		rec := j2.Recovery()
		if !rec.WAL.TornTail || rec.Offers != 4 {
			t.Fatalf("recovery = %+v, want torn tail and 4 offers", rec)
		}
		if _, ok := s2.Get("offer-3"); !ok {
			t.Fatal("offer-3 lost")
		}
		if _, ok := s2.Get("offer-4"); ok {
			t.Fatal("the torn, unacknowledgeable record was resurrected")
		}
		j2.Close()
	})

	t.Run("interior corruption refused", func(t *testing.T) {
		mangled := append([]byte(nil), data...)
		mangled[12] ^= 0xff // inside the first record's payload
		if err := os.WriteFile(last, mangled, 0o644); err != nil {
			t.Fatalf("corrupt segment: %v", err)
		}
		_, _, err := OpenJournaled(JournalOptions{Dir: dir, Clock: clock.Now})
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("OpenJournaled on corrupt journal = %v, want wal.ErrCorrupt", err)
		}
	})
}

func TestJournalMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: t0}
	s, j := openTestJournaled(t, dir, clock, JournalOptions{})
	if err := s.Submit(testOffer("a")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	reg := obs.NewRegistry()
	RegisterJournalMetrics(reg, j)
	RegisterStoreMetrics(reg, s)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"wal_appends_total 1", "wal_fsyncs_total", "wal_bytes_total",
		"wal_segments 1", "snapshot_writes_total 1", "snapshot_errors_total 0",
		"snapshot_last_lsn 1", "recovery_duration_seconds", "recovery_events_replayed 0",
		"offers_expired_total 0",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestRecoveredRecordsKeepTheirBytes reopens a 4-shard store from
// snapshots plus a WAL tail after a crash and holds every record's
// GET /offers/{id} body, and every page of the plain and the owner walks,
// to the bytes they had before the crash. IDs and owners hold characters
// encoding/json escapes, the clock has a zone offset and nanoseconds, and
// assignments carry energies with long decimal forms.
func TestRecoveredRecordsKeepTheirBytes(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: t0.Add(123456789).In(time.FixedZone("CEST", 2*60*60))}
	owner := func(i int) string { return fmt.Sprintf("<house&%d>", i%5) }
	submit := func(s *Store, from, to int) {
		for i := from; i < to; i++ {
			f := testOffer(fmt.Sprintf("%s/peak-%04d", owner(i), i))
			f.ConsumerID = owner(i)
			if err := s.Submit(f); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		}
	}
	move := func(s *Store, from, to int) {
		for i := from; i < to; i++ {
			id := fmt.Sprintf("%s/peak-%04d", owner(i), i)
			switch i % 4 {
			case 0:
				if err := s.Reject(id); err != nil {
					t.Fatalf("Reject %s: %v", id, err)
				}
			case 1, 2:
				if err := s.Accept(id); err != nil {
					t.Fatalf("Accept %s: %v", id, err)
				}
				if i%4 == 2 {
					if _, err := s.Assign(id, t0.Add(7*time.Hour), []float64{0.7000000000000001, 0.55, 0.9999999, 0.5}); err != nil {
						t.Fatalf("Assign %s: %v", id, err)
					}
				}
			}
		}
	}
	get := func(srv *httptest.Server, path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	// bodies records every response the recovered store must reproduce.
	bodies := func(s *Store) map[string]string {
		srv := httptest.NewServer(NewServer(s))
		defer srv.Close()
		out := make(map[string]string)
		for _, r := range s.List() {
			path := "/offers/" + url.PathEscape(r.Offer.ID)
			out[path] = get(srv, path)
		}
		for _, filter := range []string{"", "&owner=" + url.QueryEscape(owner(3)), "&owner=" + url.QueryEscape(owner(1)) + "&state=assigned"} {
			path := "/offers?limit=7" + filter
			for {
				body := get(srv, path)
				out[path] = body
				var page Page
				if err := json.Unmarshal([]byte(body), &page); err != nil {
					t.Fatalf("decode %s: %v", path, err)
				}
				if page.NextCursor == "" {
					break
				}
				path = "/offers?limit=7" + filter + "&cursor=" + page.NextCursor
			}
		}
		return out
	}

	s1, j1 := openTestJournaled(t, dir, clock, JournalOptions{Shards: 4})
	submit(s1, 0, 40)
	move(s1, 0, 20)
	if err := j1.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	submit(s1, 40, 60)
	move(s1, 20, 60)
	before := bodies(s1)
	closeLogs(t, j1)

	s2, j2 := openTestJournaled(t, dir, clock, JournalOptions{Shards: 4})
	if rec := j2.Recovery(); !rec.SnapshotUsed || rec.EventsReplayed == 0 {
		t.Fatalf("recovery = %+v, want a snapshot plus a WAL tail", rec)
	}
	after := bodies(s2)
	if len(after) != len(before) {
		t.Fatalf("recovered store answers %d requests, want %d", len(after), len(before))
	}
	for path, want := range before {
		if got := after[path]; got != want {
			t.Errorf("GET %s after recovery:\n got %s\nwant %s", path, got, want)
		}
	}
}
