package sched

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/market"
	"repro/internal/res"
)

var svcT0 = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// svcClock is a controllable clock shared by the service tests.
type svcClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *svcClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// svcOffer builds a grid-aligned offer the scheduler can place: slices of
// 15 min, earliest start est, time flexibility tf, deadlines one hour
// before the start window.
func svcOffer(id string, est time.Time, tf time.Duration, slices int, minE, maxE float64) *flexoffer.FlexOffer {
	return &flexoffer.FlexOffer{
		ID:             id,
		ConsumerID:     "svc",
		CreationTime:   svcT0,
		AcceptanceTime: est.Add(-time.Hour),
		AssignmentTime: est.Add(-30 * time.Minute),
		EarliestStart:  est,
		LatestStart:    est.Add(tf),
		Profile:        flexoffer.UniformProfile(slices, 15*time.Minute, minE, maxE),
	}
}

// acceptOffer submits and accepts one offer.
func acceptOffer(t *testing.T, store *market.Store, f *flexoffer.FlexOffer) {
	t.Helper()
	if err := store.Submit(f); err != nil {
		t.Fatalf("Submit %s: %v", f.ID, err)
	}
	if err := store.Accept(f.ID); err != nil {
		t.Fatalf("Accept %s: %v", f.ID, err)
	}
}

func newTestService(t *testing.T, store *market.Store, clock *svcClock, ledgerDir string) *Service {
	t.Helper()
	svc, err := New(Config{
		Store:      store,
		Supply:     FlatSupply(10),
		Clock:      clock.Now,
		Horizon:    6 * time.Hour,
		Resolution: 15 * time.Minute,
		LedgerDir:  ledgerDir,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func TestServiceEndToEnd(t *testing.T) {
	clock := &svcClock{now: svcT0}
	store := market.NewShardedStore(4, clock.Now)

	// o1 and o2 share an EST bucket, phase and time-flexibility bucket, so
	// they aggregate together; o3 sits in a later bucket; o4 stays Offered
	// and must not be scheduled.
	o1 := svcOffer("o1", svcT0.Add(2*time.Hour), time.Hour, 4, 0.5, 1.0)
	o2 := svcOffer("o2", svcT0.Add(2*time.Hour).Add(15*time.Minute), time.Hour, 4, 0.5, 1.0)
	o3 := svcOffer("o3", svcT0.Add(4*time.Hour).Add(30*time.Minute), 30*time.Minute, 2, 1.0, 2.0)
	for _, f := range []*flexoffer.FlexOffer{o1, o2, o3} {
		acceptOffer(t, store, f)
	}
	o4 := svcOffer("o4", svcT0.Add(2*time.Hour), time.Hour, 4, 0.5, 1.0)
	if err := store.Submit(o4); err != nil {
		t.Fatal(err)
	}

	svc := newTestService(t, store, clock, filepath.Join(t.TempDir(), "sched"))
	defer svc.Close()

	aggs, err := svc.Aggregates()
	if err != nil {
		t.Fatalf("Aggregates: %v", err)
	}
	if len(aggs) != 2 {
		t.Fatalf("got %d aggregates, want 2: %+v", len(aggs), aggs)
	}

	summary, err := svc.RunOnce()
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if summary.Run != 1 || summary.Aggregates != 2 || summary.Decisions != 2 || summary.Members != 3 {
		t.Fatalf("summary = %+v", summary)
	}
	if summary.ApplyErrors != 0 || summary.Skipped != 0 {
		t.Fatalf("summary reports failures: %+v", summary)
	}
	if !(summary.AssignedKWh > 0) {
		t.Fatalf("AssignedKWh = %v", summary.AssignedKWh)
	}

	for _, f := range []*flexoffer.FlexOffer{o1, o2, o3} {
		rec, ok := store.Get(f.ID)
		if !ok || rec.State != market.Assigned || rec.Assignment == nil {
			t.Fatalf("offer %s not assigned: %+v", f.ID, rec)
		}
		if len(rec.Assignment.Energies) != len(f.Profile) {
			t.Fatalf("offer %s assignment length %d", f.ID, len(rec.Assignment.Energies))
		}
		for i, e := range rec.Assignment.Energies {
			sl := f.Profile[i]
			if e < sl.MinEnergy || e > sl.MaxEnergy {
				t.Fatalf("offer %s slice %d energy %v outside [%v,%v]", f.ID, i, e, sl.MinEnergy, sl.MaxEnergy)
			}
		}
		if rec.Assignment.Start.Before(f.EarliestStart) || rec.Assignment.Start.After(f.LatestStart) {
			t.Fatalf("offer %s start %v outside window", f.ID, rec.Assignment.Start)
		}
	}
	if rec, _ := store.Get("o4"); rec.State != market.Offered {
		t.Fatalf("unaccepted offer was touched: %+v", rec)
	}

	// The assignment events fold back: the aggregator is empty again.
	if st := svc.AggStats(); st.Members != 0 {
		t.Fatalf("aggregator still holds %d members after assignment", st.Members)
	}
	status := svc.Status()
	if status.Runs != 1 || status.Decisions != 2 || status.ApplyErrors != 0 || status.LedgerErrors != 0 {
		t.Fatalf("status = %+v", status)
	}
	if status.LastRun == nil || status.LastRun.Run != 1 || len(status.History) != 1 {
		t.Fatalf("status history = %+v", status)
	}
}

func TestServiceLedgerRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	clock := &svcClock{now: svcT0}

	store1 := market.NewShardedStore(2, clock.Now)
	acceptOffer(t, store1, svcOffer("lr1", svcT0.Add(2*time.Hour), time.Hour, 4, 0.5, 1.0))
	svc1 := newTestService(t, store1, clock, dir)
	if _, err := svc1.RunOnce(); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if _, err := svc1.RunOnce(); err != nil { // empty round
		t.Fatalf("run 2: %v", err)
	}
	before := svc1.Status()
	if err := svc1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh process: new store, same ledger directory.
	store2 := market.NewShardedStore(2, clock.Now)
	svc2 := newTestService(t, store2, clock, dir)
	defer svc2.Close()
	after := svc2.Status()
	if after.Runs != 2 || after.Decisions != before.Decisions {
		t.Fatalf("recovered status = %+v, want runs 2, decisions %d", after, before.Decisions)
	}
	if after.Recovered.Records != before.Decisions+2 || after.Recovered.TornTail {
		t.Fatalf("recovered = %+v", after.Recovered)
	}
	if after.LastRun == nil || after.LastRun.Run != 2 || len(after.History) != 2 {
		t.Fatalf("recovered history = %+v", after)
	}

	// Round numbering continues across the restart.
	acceptOffer(t, store2, svcOffer("lr2", svcT0.Add(2*time.Hour), time.Hour, 4, 0.5, 1.0))
	summary, err := svc2.RunOnce()
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if summary.Run != 3 || summary.Decisions != 1 {
		t.Fatalf("post-recovery summary = %+v", summary)
	}
}

// TestServiceHistoryKeepsLast64Runs: Status reports the last 64 rounds,
// oldest first, and a service reopened from the same ledger reports the
// same 64.
func TestServiceHistoryKeepsLast64Runs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	clock := &svcClock{now: svcT0}
	svc := newTestService(t, market.NewShardedStore(2, clock.Now), clock, dir)
	const rounds, kept = 70, 64
	for i := 1; i <= rounds; i++ {
		if _, err := svc.RunOnce(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	checkHistory := func(label string, st Status) {
		t.Helper()
		if len(st.History) != kept {
			t.Fatalf("%s: history holds %d runs, want %d", label, len(st.History), kept)
		}
		for i, r := range st.History {
			if want := uint64(rounds - kept + 1 + i); r.Run != want {
				t.Fatalf("%s: history[%d] is run %d, want %d", label, i, r.Run, want)
			}
		}
	}
	live := svc.Status()
	checkHistory("live", live)
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reopened := newTestService(t, market.NewShardedStore(2, clock.Now), clock, dir)
	defer reopened.Close()
	recovered := reopened.Status()
	checkHistory("reopened", recovered)
	liveJSON, err := json.Marshal(live.History)
	if err != nil {
		t.Fatal(err)
	}
	recoveredJSON, err := json.Marshal(recovered.History)
	if err != nil {
		t.Fatal(err)
	}
	if string(liveJSON) != string(recoveredJSON) {
		t.Fatalf("reopened history differs from the live one:\nlive      %s\nrecovered %s", liveJSON, recoveredJSON)
	}
}

func TestServiceHTTP(t *testing.T) {
	clock := &svcClock{now: svcT0}
	store := market.NewShardedStore(2, clock.Now)
	acceptOffer(t, store, svcOffer("h1", svcT0.Add(2*time.Hour), time.Hour, 4, 0.5, 1.0))
	svc := newTestService(t, store, clock, "")
	defer svc.Close()
	h := svc.Handler()

	do := func(method, target string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, target, nil))
		return rr
	}

	rr := do(http.MethodGet, "/aggregates")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /aggregates = %d: %s", rr.Code, rr.Body)
	}
	var aggResp struct {
		Aggregates []AggregateView `json:"aggregates"`
		Total      int             `json:"total"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &aggResp); err != nil {
		t.Fatalf("decode /aggregates: %v", err)
	}
	if aggResp.Total != 1 || len(aggResp.Aggregates) != 1 || aggResp.Aggregates[0].Members[0] != "h1" {
		t.Fatalf("aggregates body = %+v", aggResp)
	}
	if rr := do(http.MethodGet, "/aggregates?limit=0"); rr.Code != http.StatusOK {
		t.Fatalf("limit=0 = %d", rr.Code)
	}
	if rr := do(http.MethodGet, "/aggregates?limit=oops"); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d", rr.Code)
	}
	if rr := do(http.MethodPost, "/aggregates"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /aggregates = %d", rr.Code)
	}

	if rr := do(http.MethodPost, "/schedule"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /schedule = %d", rr.Code)
	}
	if rr := do(http.MethodGet, "/schedule/run"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /schedule/run = %d", rr.Code)
	}

	rr = do(http.MethodPost, "/schedule/run")
	if rr.Code != http.StatusOK {
		t.Fatalf("POST /schedule/run = %d: %s", rr.Code, rr.Body)
	}
	var summary RunSummary
	if err := json.Unmarshal(rr.Body.Bytes(), &summary); err != nil {
		t.Fatalf("decode run summary: %v", err)
	}
	if summary.Run != 1 || summary.Decisions != 1 {
		t.Fatalf("run summary = %+v", summary)
	}

	rr = do(http.MethodGet, "/schedule")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /schedule = %d", rr.Code)
	}
	var status Status
	if err := json.Unmarshal(rr.Body.Bytes(), &status); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if status.Runs != 1 || status.Decisions != 1 {
		t.Fatalf("status = %+v", status)
	}

	if rr := do(http.MethodGet, "/nope"); rr.Code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d", rr.Code)
	}
}

func TestAlignUp(t *testing.T) {
	res := 15 * time.Minute
	cases := []struct {
		in, want time.Time
	}{
		{svcT0, svcT0},
		{svcT0.Add(time.Second), svcT0.Add(res)},
		{svcT0.Add(14 * time.Minute), svcT0.Add(res)},
		{svcT0.Add(res), svcT0.Add(res)},
	}
	for _, c := range cases {
		if got := alignUp(c.in, res); !got.Equal(c.want) {
			t.Errorf("alignUp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWindForecastSupplyAligned(t *testing.T) {
	supply := WindForecastSupply(res.DefaultWindModel(), res.DefaultTurbine(), 2, 7)
	start := svcT0.Add(5*time.Hour + 15*time.Minute)
	s, err := supply(start, 8, 15*time.Minute)
	if err != nil {
		t.Fatalf("supply: %v", err)
	}
	if s.Len() != 8 || !s.Start().Equal(start) || s.Resolution() != 15*time.Minute {
		t.Fatalf("supply series start %v len %d res %v", s.Start(), s.Len(), s.Resolution())
	}
	// Deterministic for a fixed seed.
	again, err := supply(start, 8, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if diff := s.Value(i) - again.Value(i); diff != 0 {
			t.Fatalf("supply not reproducible at %d: %v vs %v", i, s.Value(i), again.Value(i))
		}
	}
}
