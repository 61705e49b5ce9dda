package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flexoffer"
	"repro/internal/kpi"
	"repro/internal/market"
	"repro/internal/num"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/timeseries"
)

// The soak tests drive the full extraction→market path under a nonzero
// fault profile and the race detector (make soak / CI soak-short). The
// contract under test is zero lost offers: every extracted offer lands in
// the store (accepted or semantically rejected) or in the dead-letter
// set; nothing vanishes inside the retry machinery.

var soakStart = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// soakProfile is the reference fault profile: ~32% of sink operations are
// perturbed, spread over every fault kind.
const soakProfile = "seed=42,error=0.15,latency=0.02:2ms,panic=0.05,partial=0.1"

// soakSeries builds a peaky household series the peak extractor finds
// offers in.
func soakSeries(days int, phase float64) *timeseries.Series {
	res := 15 * time.Minute
	perDay := int((24 * time.Hour) / res)
	vals := make([]float64, days*perDay)
	for i := range vals {
		frac := float64(i%perDay) / float64(perDay) * 24
		vals[i] = 0.2 + 0.6*math.Exp(-(frac-19-phase)*(frac-19-phase)/6)
	}
	return timeseries.MustNew(soakStart, res, vals)
}

func soakJobs(n int) []pipeline.Job {
	jobs := make([]pipeline.Job, n)
	for i := range jobs {
		jobs[i] = pipeline.Job{
			ID:     "soak-" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Series: soakSeries(2, float64(i%5)/2),
		}
	}
	return jobs
}

func soakExtractor(j pipeline.Job) core.Extractor {
	p := core.DefaultParams()
	p.ConsumerID = j.ID
	p.Seed = int64(len(j.ID)) + int64(j.ID[len(j.ID)-1])
	return &core.PeakExtractor{Params: p}
}

// soakPolicy keeps retry backoffs fast enough for a test loop.
func soakPolicy() pipeline.RetryPolicy {
	return pipeline.RetryPolicy{
		MaxAttempts:    4,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		Jitter:         0.2,
		JitterSeed:     42,
		AttemptTimeout: time.Second,
	}
}

// pipelinePhase runs one extraction batch through a faulty store sink and
// returns the full accounting.
type phaseResult struct {
	stats      pipeline.Stats
	submitted  int
	rejected   int
	dead       int
	retries    int
	faultTotal uint64
	faults     map[string]uint64
	// deadByOwner attributes dead-lettered offers to their ConsumerID, the
	// attribution the KPI fold expects via ObserveDeadLetters.
	deadByOwner map[string]uint64
}

func runPipelinePhase(t *testing.T, jobs []pipeline.Job, workers int) phaseResult {
	t.Helper()
	// Logical clock before every extracted deadline, as a replay
	// deployment would pin it.
	clock := soakStart.Add(-48 * time.Hour)
	return runPipelinePhaseOn(t, market.NewStore(func() time.Time { return clock }), jobs, workers)
}

// runPipelinePhaseOn is runPipelinePhase against a caller-owned store, so
// a test can hang observers (the KPI event fold) off the store before the
// faulty traffic starts.
func runPipelinePhaseOn(t *testing.T, store *market.Store, jobs []pipeline.Job, workers int) phaseResult {
	t.Helper()
	prof, err := faultinject.ParseProfile(soakProfile)
	if err != nil {
		t.Fatal(err)
	}
	schedule := faultinject.NewSchedule(prof)
	storeSink := &pipeline.StoreSink{Store: store}
	resilient := pipeline.NewResilientSink(faultinject.WrapSink(storeSink, schedule), soakPolicy(), nil)

	stats, err := pipeline.RunJobs(context.Background(),
		pipeline.Config{Workers: workers, NewExtractor: soakExtractor}, jobs, resilient)
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	submitted, rejected := storeSink.Counts()
	faults := schedule.Counts()
	deadByOwner := make(map[string]uint64)
	for _, dl := range resilient.DeadLetters() {
		for _, fo := range dl.Offers {
			deadByOwner[fo.ConsumerID]++
		}
	}
	return phaseResult{
		stats:       stats,
		submitted:   submitted,
		rejected:    rejected,
		dead:        resilient.DeadLetteredOffers(),
		retries:     resilient.Retries(),
		faultTotal:  faults["total"],
		faults:      faults,
		deadByOwner: deadByOwner,
	}
}

// TestSoakPipelineZeroLostOffers runs extractor → pipeline → faulty store
// and closes the books: emitted == stored + rejected + dead-lettered.
func TestSoakPipelineZeroLostOffers(t *testing.T) {
	nJobs := 24
	if testing.Short() {
		nJobs = 8
	}
	res := runPipelinePhase(t, soakJobs(nJobs), 4)

	if res.stats.OffersEmitted == 0 {
		t.Fatal("extraction emitted no offers; the soak exercised nothing")
	}
	if res.faultTotal == 0 || res.faults[faultinject.Error.String()] == 0 {
		t.Fatalf("fault schedule idle: %v", res.faults)
	}
	if got := res.submitted + res.rejected + res.dead; got != res.stats.OffersEmitted {
		t.Fatalf("lost offers: emitted %d, accounted %d (stored %d + rejected %d + dead %d)",
			res.stats.OffersEmitted, got, res.submitted, res.rejected, res.dead)
	}
	if res.stats.DeadLettered != res.dead || res.stats.SinkRetries != res.retries {
		t.Fatalf("Stats (%d dead, %d retries) disagrees with sink (%d, %d)",
			res.stats.DeadLettered, res.stats.SinkRetries, res.dead, res.retries)
	}
	if res.retries == 0 {
		t.Fatal("no retries under a 32% fault rate; the resilient path was bypassed")
	}
	if counts := res.stats.OffersEmitted; res.dead > counts/2 {
		t.Fatalf("%d of %d offers dead-lettered; retry budget too small for the profile", res.dead, counts)
	}
}

// TestSoakFaultReplayDeterminism runs the same single-worker batch twice
// with the same fault-schedule seed and requires identical fault
// sequences and identical delivery accounting — the property that makes
// a soak failure reproducible from its seed.
func TestSoakFaultReplayDeterminism(t *testing.T) {
	nJobs := 12
	if testing.Short() {
		nJobs = 6
	}
	first := runPipelinePhase(t, soakJobs(nJobs), 1)
	second := runPipelinePhase(t, soakJobs(nJobs), 1)

	if !reflect.DeepEqual(first.faults, second.faults) {
		t.Fatalf("fault sequences diverged for one seed:\n  first:  %v\n  second: %v", first.faults, second.faults)
	}
	if first.submitted != second.submitted || first.rejected != second.rejected ||
		first.dead != second.dead || first.retries != second.retries {
		t.Fatalf("delivery accounting diverged for one seed:\n  first:  %+v\n  second: %+v", first, second)
	}
}

// TestSoakHTTPLoadUnderFaults drives the flexload closed loop against a
// fault-injecting market server and checks (a) the client observed the
// injected faults and (b) the store holds exactly the offers the clients
// saw succeed — the zero-lost-offers contract on the HTTP path.
func TestSoakHTTPLoadUnderFaults(t *testing.T) {
	prof, err := faultinject.ParseProfile("seed=7,error=0.1,latency=0.05:2ms,panic=0.05")
	if err != nil {
		t.Fatal(err)
	}
	schedule := faultinject.NewSchedule(prof)
	store := market.NewStore(nil)
	reg := obs.NewRegistry()
	metrics := obs.NewHTTPMetrics(reg, "soak")
	srv := httptest.NewServer(market.NewServer(store,
		market.WithObservability(metrics, nil),
		market.WithMiddleware(func(next http.Handler) http.Handler {
			return faultinject.Middleware(next, schedule)
		}),
	))
	defer srv.Close()

	duration := 4 * time.Second
	if testing.Short() {
		duration = 1500 * time.Millisecond
	}
	rep, err := run(context.Background(), config{
		BaseURL:     srv.URL,
		Concurrency: 4,
		Duration:    duration,
		Seed:        42,
		HTTPClient:  srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.TotalOps == 0 || rep.ThroughputOpsPerSec <= 0 {
		t.Fatalf("load loop idle: %+v", rep)
	}
	if rep.OffersSubmitted == 0 {
		t.Fatal("no offers submitted")
	}
	if rep.TotalErrors == 0 {
		t.Fatalf("no client-side errors under a 20%% fault profile (faults: %v)", schedule.Counts())
	}
	if schedule.Counts()["total"] == 0 {
		t.Fatal("fault middleware never consulted the schedule")
	}
	// Recovered injected panics must be visible in the server metrics —
	// the middleware composition under test.
	if schedule.Counts()[faultinject.Panic.String()] > 0 && metrics.Panics.Value() == 0 {
		t.Fatal("injected panics not recovered/counted by the obs middleware")
	}
	// Zero lost offers over HTTP: the store holds exactly the submissions
	// the clients saw succeed.
	if got := len(store.List()); got != int(rep.OffersSubmitted) {
		t.Fatalf("store holds %d offers, clients saw %d submissions succeed", got, rep.OffersSubmitted)
	}
	counts := store.Stats()
	total := counts.Offered + counts.Accepted + counts.Rejected + counts.Assigned + counts.Expired
	if total != int(rep.OffersSubmitted) {
		t.Fatalf("store states sum to %d, want %d", total, rep.OffersSubmitted)
	}
	if counts.Assigned != int(rep.OffersAssigned) {
		t.Fatalf("store assigned %d, clients completed %d assignments", counts.Assigned, rep.OffersAssigned)
	}
	// The latency percentiles the report carries must be populated.
	sub := rep.Ops["submit"]
	if sub.Count == 0 || math.IsNaN(sub.P50Ms) || sub.P50Ms <= 0 {
		t.Fatalf("submit stats unpopulated: %+v", sub)
	}
}

// TestSoakScheduleRound interleaves scheduling rounds with the lifecycle
// load: the flexload loop runs with -schedule-every against a daemon-shaped
// handler (market API plus the scheduling API), with a few accepted offers
// seeded outside the workers' ID space so the aggregation is never empty.
// At least one round must run mid-soak with zero schedule-op errors, and
// the seeded offers must come out the other side assigned by the
// scheduler — the live extract→aggregate→schedule→assign loop closing
// under concurrent load.
func TestSoakScheduleRound(t *testing.T) {
	store := market.NewStore(nil)
	svc, err := sched.New(sched.Config{
		Store:      store,
		Supply:     sched.FlatSupply(1000),
		Horizon:    6 * time.Hour,
		Resolution: 15 * time.Minute,
	})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	defer svc.Close()
	kpiSvc, err := kpi.NewService(kpi.ServiceConfig{Store: store})
	if err != nil {
		t.Fatalf("kpi.NewService: %v", err)
	}
	defer kpiSvc.Close()

	mux := http.NewServeMux()
	mux.Handle("/", market.NewServer(store))
	mux.Handle("/aggregates", svc.Handler())
	mux.Handle("/schedule", svc.Handler())
	mux.Handle("/schedule/", svc.Handler())
	mux.Handle("/kpi", kpiSvc.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Accepted offers outside the load-%d-w%d worker ID space: stable
	// material for the rounds, aligned to the 15-minute scheduling grid.
	now := time.Now().UTC()
	est := now.Add(time.Hour).Truncate(15 * time.Minute)
	for i := 0; i < 4; i++ {
		fo := &flexoffer.FlexOffer{
			ID:             fmt.Sprintf("sched-ev-%d", i),
			ConsumerID:     "sched-soak",
			CreationTime:   now,
			AcceptanceTime: now.Add(30 * time.Minute),
			AssignmentTime: now.Add(45 * time.Minute),
			EarliestStart:  est,
			LatestStart:    est.Add(2 * time.Hour),
			Profile:        flexoffer.UniformProfile(4, 15*time.Minute, 0.5, 1.0),
		}
		if err := store.Submit(fo); err != nil {
			t.Fatalf("seed submit %d: %v", i, err)
		}
		if err := store.Accept(fo.ID); err != nil {
			t.Fatalf("seed accept %d: %v", i, err)
		}
	}

	duration := 2 * time.Second
	if testing.Short() {
		duration = time.Second
	}
	rep, err := run(context.Background(), config{
		BaseURL:       srv.URL,
		Concurrency:   4,
		Duration:      duration,
		Seed:          11,
		ScheduleEvery: duration / 4,
		HTTPClient:    srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	schedOp := rep.Ops["schedule"]
	if schedOp.Count == 0 {
		t.Fatal("no scheduling round ran mid-soak")
	}
	if schedOp.Errors != 0 {
		t.Fatalf("%d of %d scheduling rounds failed", schedOp.Errors, schedOp.Count)
	}
	if rep.OffersSubmitted == 0 {
		t.Fatal("load loop submitted nothing alongside the rounds")
	}
	st := svc.Status()
	if st.Runs == 0 || st.LastRun == nil {
		t.Fatalf("service saw no rounds: %+v", st)
	}
	if st.Decisions == 0 {
		t.Fatalf("rounds ran but nothing was scheduled: %+v", st)
	}
	// The seeded offers were accepted and schedulable; the rounds must
	// have assigned them (workers never touch the sched-ev-* IDs).
	assigned := 0
	for i := 0; i < 4; i++ {
		rec, ok := store.Get(fmt.Sprintf("sched-ev-%d", i))
		if !ok {
			t.Fatalf("seed offer %d vanished", i)
		}
		if rec.State == market.Assigned {
			assigned++
		}
	}
	if assigned == 0 {
		t.Fatal("no seeded offer was assigned by a scheduling round")
	}
	// The report carries the server's KPI block, and the generator's own
	// ledger reconciles against the server-side fold with zero errors.
	if rep.KPI == nil {
		t.Fatal("report has no KPI block despite a /kpi route")
	}
	if len(rep.KPI.ReconciliationErrors) != 0 {
		t.Fatalf("KPI reconciliation failed: %v", rep.KPI.ReconciliationErrors)
	}
	if rep.KPI.Report.Global.Submitted == 0 {
		t.Fatal("KPI block is empty despite live traffic")
	}
}

// TestSoakJournaledStoreSurvivesRestart is the recovery-aware soak: the
// full flexload closed loop runs against a journaled store (fsync on
// every append, automatic snapshots), the daemon "restarts" by closing
// and reopening the journal, and the recovered store must hold exactly
// the lifecycle state the clients saw acknowledged — zero lost offers
// across a restart, not just across faults.
func TestSoakJournaledStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, journal, err := market.OpenJournaled(market.JournalOptions{Dir: dir, SnapshotEvery: 64})
	if err != nil {
		t.Fatalf("OpenJournaled: %v", err)
	}
	srv := httptest.NewServer(market.NewServer(store))

	duration := 2 * time.Second
	if testing.Short() {
		duration = time.Second
	}
	rep, err := run(context.Background(), config{
		BaseURL:     srv.URL,
		Concurrency: 4,
		Duration:    duration,
		Seed:        7,
		HTTPClient:  srv.Client(),
	})
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OffersSubmitted == 0 {
		t.Fatal("load loop submitted nothing; the restart test exercised nothing")
	}
	before, err := json.Marshal(store.List())
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	store2, journal2, err := market.OpenJournaled(market.JournalOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer journal2.Close()
	after, err := json.Marshal(store2.List())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("recovered store state differs from the state at shutdown")
	}
	if got := len(store2.List()); got != int(rep.OffersSubmitted) {
		t.Fatalf("recovered %d offers, clients saw %d submissions succeed", got, rep.OffersSubmitted)
	}
	if counts := store2.Stats(); counts.Assigned != int(rep.OffersAssigned) {
		t.Fatalf("recovered %d assignments, clients completed %d", counts.Assigned, rep.OffersAssigned)
	}
	rec := journal2.Recovery()
	if rec.Offers != int(rep.OffersSubmitted) {
		t.Fatalf("recovery reports %d offers, want %d", rec.Offers, rep.OffersSubmitted)
	}
}

// TestSoakKPIConsistency closes the books on the KPI fold: the live
// tracker follows a store that is being written through the faulty retry
// pipeline, and at the end (a) the KPI ledger must reconcile exactly with
// the zero-lost-offers accounting (emitted == stored + rejected +
// dead-lettered, with the KPI report holding the stored and dead counts),
// and (b) GET /kpi must agree with a batch recompute over the paginated
// /offers listing — counts bitwise, energy sums within float tolerance
// (the two folds accumulate in different event orders).
func TestSoakKPIConsistency(t *testing.T) {
	clock := soakStart.Add(-48 * time.Hour)
	store := market.NewStore(func() time.Time { return clock })
	cfg := kpi.Config{Resolution: 15 * time.Minute}
	svc, err := kpi.NewService(kpi.ServiceConfig{Store: store, Config: cfg})
	if err != nil {
		t.Fatalf("kpi.NewService: %v", err)
	}
	defer svc.Close()

	nJobs := 16
	if testing.Short() {
		nJobs = 6
	}
	res := runPipelinePhaseOn(t, store, soakJobs(nJobs), 4)
	if res.stats.OffersEmitted == 0 {
		t.Fatal("extraction emitted no offers; the soak exercised nothing")
	}

	// Move a slice of the survivors through the rest of the lifecycle so
	// the derived KPIs (shift factor, peak reduction, realisation) are
	// non-trivial, not just the submission counters.
	assigned := 0
	for _, rec := range store.List(market.Offered) {
		if assigned == 8 {
			break
		}
		if err := store.Accept(rec.Offer.ID); err != nil {
			t.Fatalf("accept %s: %v", rec.Offer.ID, err)
		}
		energies := make([]float64, len(rec.Offer.Profile))
		for i, s := range rec.Offer.Profile {
			energies[i] = s.AvgEnergy()
		}
		if _, err := store.Assign(rec.Offer.ID, rec.Offer.EarliestStart, energies); err != nil {
			t.Fatalf("assign %s: %v", rec.Offer.ID, err)
		}
		assigned++
	}
	if assigned == 0 {
		t.Fatal("no offered records survived the faulty phase")
	}

	// The dead-letter set arrives out of band, attributed per owner the
	// way a daemon would feed it from the pipeline accounting.
	for owner, n := range res.deadByOwner {
		svc.ObserveDeadLetters(owner, n)
	}

	// (a) The KPI ledger reconciles with the zero-lost-offers contract.
	if got := res.submitted + res.rejected + res.dead; got != res.stats.OffersEmitted {
		t.Fatalf("lost offers: emitted %d, accounted %d", res.stats.OffersEmitted, got)
	}
	rep := svc.Report()
	if rep.Global.Submitted != uint64(res.submitted) {
		t.Fatalf("KPI submitted %d, store sink stored %d", rep.Global.Submitted, res.submitted)
	}
	if rep.Global.DeadLettered != uint64(res.dead) {
		t.Fatalf("KPI dead-lettered %d, resilient sink recorded %d", rep.Global.DeadLettered, res.dead)
	}
	if rep.Global.Assigned != uint64(assigned) {
		t.Fatalf("KPI assigned %d, test assigned %d", rep.Global.Assigned, assigned)
	}
	wantLoss := float64(res.dead) / float64(res.submitted+res.dead)
	if !num.EqTol(rep.Global.DeadLetterLossRatio, wantLoss, 1e-9) {
		t.Fatalf("dead-letter loss ratio %v, want %v", rep.Global.DeadLetterLossRatio, wantLoss)
	}

	// (b) GET /kpi against a daemon-shaped handler agrees with a batch
	// recompute over the paginated /offers walk.
	mux := http.NewServeMux()
	mux.Handle("/", market.NewServer(store))
	mux.Handle("/kpi", svc.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var httpRep kpi.Report
	resp, err := srv.Client().Get(srv.URL + "/kpi")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /kpi = %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&httpRep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	client := &market.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	var records []market.Record
	q := market.ListQuery{Limit: 5}
	pages := 0
	for {
		page, err := client.ListPage(q)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		records = append(records, page.Records...)
		pages++
		if page.NextCursor == "" {
			break
		}
		q.Cursor = page.NextCursor
	}
	if pages < 2 {
		t.Fatalf("pagination not exercised: %d records in %d page(s)", len(records), pages)
	}
	batchRep, err := kpi.FromRecords(cfg, records, res.deadByOwner)
	if err != nil {
		t.Fatalf("FromRecords: %v", err)
	}

	// Counts must match bitwise; energy folds accumulated in different
	// orders (live event order vs pagination order) may differ in the
	// last ulps.
	g, b := httpRep.Global, batchRep.Global
	if g.Submitted != b.Submitted || g.Accepted != b.Accepted || g.Rejected != b.Rejected ||
		g.Assigned != b.Assigned || g.DeadLettered != b.DeadLettered {
		t.Fatalf("count mismatch:\n  /kpi:  %+v\n  batch: %+v", g.Totals, b.Totals)
	}
	for _, c := range []struct {
		name      string
		live, rec float64
	}{
		{"offered_kwh", g.OfferedKWh, b.OfferedKWh},
		{"assigned_kwh", g.AssignedKWh, b.AssignedKWh},
		{"off_peak_assigned_kwh", g.OffPeakAssignedKWh, b.OffPeakAssignedKWh},
		{"baseline_peak_kwh", g.BaselinePeakKWh, b.BaselinePeakKWh},
		{"realised_peak_kwh", g.RealisedPeakKWh, b.RealisedPeakKWh},
		{"shift_factor", g.ShiftFactor, b.ShiftFactor},
		{"peak_reduction", g.PeakReduction, b.PeakReduction},
		{"energy_realisation", g.EnergyRealisation, b.EnergyRealisation},
		{"time_flex_use", g.TimeFlexUse, b.TimeFlexUse},
		{"dead_letter_loss_ratio", g.DeadLetterLossRatio, b.DeadLetterLossRatio},
	} {
		if !num.EqTol(c.live, c.rec, 1e-6) {
			t.Errorf("%s: /kpi %v vs batch recompute %v", c.name, c.live, c.rec)
		}
	}
	if len(httpRep.Owners) != len(batchRep.Owners) {
		t.Fatalf("owner sets differ: /kpi %d vs batch %d", len(httpRep.Owners), len(batchRep.Owners))
	}
	for owner, lv := range httpRep.Owners {
		bv, ok := batchRep.Owners[owner]
		if !ok {
			t.Fatalf("owner %q missing from batch recompute", owner)
		}
		if lv.Submitted != bv.Submitted || lv.Assigned != bv.Assigned || lv.DeadLettered != bv.DeadLettered {
			t.Errorf("owner %q counts: /kpi %+v vs batch %+v", owner, lv.Totals, bv.Totals)
		}
	}
}

// overloadHandler assembles a daemon-shaped surface with tight
// admission limits — write capacity far below the offered concurrency —
// the way run() wires mirabeld, returning the controller and registry
// for assertions. Every non-ops request carries a 2ms service cost: the
// in-memory store answers in microseconds, far faster than a store
// doing real work, and without the cost requests never overlap inside
// the limiter and nothing sheds.
func overloadHandler(store *market.Store, kpiSvc *kpi.Service) (http.Handler, *admission.Controller, *obs.Registry) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/", market.NewServer(store))
	if kpiSvc != nil {
		mux.Handle("/kpi", kpiSvc.Handler())
	}
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		mux.ServeHTTP(w, r)
	})
	ctrl := admission.NewController(admission.Config{
		Reads:  admission.Limits{MaxConcurrent: 2, MaxQueue: 2, MaxWait: 5 * time.Millisecond},
		Writes: admission.Limits{MaxConcurrent: 2, MaxQueue: 2, MaxWait: 5 * time.Millisecond},
	})
	admission.RegisterMetrics(reg, ctrl)
	h := admission.WithTimeout(ctrl.Middleware(slow), 5*time.Second,
		func(r *http.Request) bool { return ctrl.ClassOf(r) == admission.ClassOps })
	return h, ctrl, reg
}

// TestSoakOverload drives flexload -overload at many times the admission
// capacity and checks the full overload contract: the server sheds with
// 429/503 and every shed carries Retry-After; no acked offer is lost
// (the store holds exactly the client-confirmed submissions); the
// bounded KPI subscription stays under its high-water mark and resyncs
// via replay to a report that matches the store; and the admission_*
// metric families account the sheds.
func TestSoakOverload(t *testing.T) {
	store := market.NewStore(nil)
	const highWater = 64
	kpiSvc, err := kpi.NewService(kpi.ServiceConfig{Store: store, EventHighWater: highWater})
	if err != nil {
		t.Fatalf("kpi.NewService: %v", err)
	}
	defer kpiSvc.Close()

	h, ctrl, reg := overloadHandler(store, kpiSvc)
	srv := httptest.NewServer(h)
	defer srv.Close()

	duration := 3 * time.Second
	if testing.Short() {
		duration = 1500 * time.Millisecond
	}
	rep, err := run(context.Background(), config{
		BaseURL:     srv.URL,
		Concurrency: 8, // 4x the write capacity of 2
		Duration:    duration,
		Seed:        10,
		Overload:    true,
		HTTPClient:  srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Overload == nil {
		t.Fatal("overload run produced no Overload block")
	}
	ov := rep.Overload
	if ov.Shed429+ov.Shed503 == 0 {
		t.Fatalf("8 workers against capacity 1 produced zero sheds: %+v", ov)
	}
	if !ov.RetryAfterCompliant {
		t.Fatalf("shed responses missing Retry-After: %+v", ov)
	}
	if ov.MaxRetryAfterSeconds <= 0 {
		t.Fatalf("no Retry-After hint recorded: %+v", ov)
	}
	if rep.OffersSubmitted == 0 {
		t.Fatal("overload shed everything; no admitted traffic to verify")
	}
	// Sheds are not errors in -overload mode; transport-level errors
	// should be absent against a healthy local server.
	if rep.TotalErrors > 0 {
		t.Errorf("overload run counted %d errors; sheds must land in the overload block", rep.TotalErrors)
	}

	// Zero acked-offer loss: the store holds exactly the submissions the
	// clients saw acknowledged with 2xx.
	if got := len(store.List()); got != int(rep.OffersSubmitted) {
		t.Fatalf("store holds %d offers, clients saw %d acked submissions", got, rep.OffersSubmitted)
	}

	// The bounded KPI subscription was never drained mid-run, so the
	// write volume must have overflowed its high-water mark; the first
	// read resyncs via replay and must agree exactly with the store.
	kpiRep := kpiSvc.Report()
	if kpiSvc.Resyncs() == 0 {
		t.Fatalf("KPI subscription never lagged despite %d writes against high-water %d",
			rep.OffersSubmitted, highWater)
	}
	if kpiRep.Global.Submitted != rep.OffersSubmitted {
		t.Fatalf("resynced KPI fold has %d submissions, store acked %d",
			kpiRep.Global.Submitted, rep.OffersSubmitted)
	}
	if kpiRep.Global.Assigned != rep.OffersAssigned {
		t.Fatalf("resynced KPI fold has %d assignments, clients confirmed %d",
			kpiRep.Global.Assigned, rep.OffersAssigned)
	}

	// Server-side accounting agrees: admission_* families saw the sheds,
	// and the write class is back to zero in-flight after the run.
	writeStats := ctrl.Stats(admission.ClassWrite)
	readStats := ctrl.Stats(admission.ClassRead)
	if writeStats.ShedTotal()+readStats.ShedTotal() == 0 {
		t.Fatal("admission controller recorded no sheds")
	}
	if writeStats.InFlight != 0 || writeStats.Queued != 0 {
		t.Fatalf("write class not drained after run: %+v", writeStats)
	}
	var sb bytes.Buffer
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"admission_shed_total", "admission_wait_seconds", "runtime_goroutines", "runtime_heap_alloc_bytes"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("/metrics missing %s under overload", want)
		}
	}
}

// TestSoakDrainShutdown is the seeded kill-under-load soak: flexload
// -overload hammers a journaled daemon-shaped server, a drain begins
// mid-run (the SIGTERM path: stop admitting, finish in-flight work,
// close the journal with its final snapshot), and the recovered store
// must hold exactly the offers the clients saw acknowledged — zero
// acked-offer loss across the drain.
func TestSoakDrainShutdown(t *testing.T) {
	dir := t.TempDir()
	store, journal, err := market.OpenJournaled(market.JournalOptions{Dir: dir, SnapshotEvery: 64})
	if err != nil {
		t.Fatalf("OpenJournaled: %v", err)
	}

	h, ctrl, _ := overloadHandler(store, nil)
	srv := httptest.NewServer(h)

	duration := 3 * time.Second
	if testing.Short() {
		duration = 1500 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := run(ctx, config{
			BaseURL:     srv.URL,
			Concurrency: 8,
			Duration:    duration,
			Seed:        13,
			Overload:    true,
			HTTPClient:  srv.Client(),
		})
		done <- result{rep, err}
	}()

	// Mid-soak SIGTERM: stop admitting new non-ops work, then drain the
	// in-flight requests bounded by the drain budget.
	time.Sleep(duration / 3)
	ctrl.BeginDrain()
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer drainCancel()
	if err := srv.Config.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel() // the server is gone; stop the generator
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	rep := res.rep
	if rep.OffersSubmitted == 0 {
		t.Fatal("nothing admitted before the drain; the soak exercised nothing")
	}
	if rep.Overload == nil || rep.Overload.Shed429+rep.Overload.Shed503 == 0 {
		t.Fatal("overload+drain produced no sheds")
	}

	// The drain ran the final snapshot path: close the journal (as the
	// daemon's deferred close does) and recover into a fresh store.
	if err := journal.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	store2, journal2, err := market.OpenJournaled(market.JournalOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer journal2.Close()

	// Zero acked-offer loss across the drain: every submission a client
	// saw acknowledged is in the recovered store, with its lifecycle
	// state intact.
	if got := len(store2.List()); got != int(rep.OffersSubmitted) {
		t.Fatalf("recovered %d offers, clients saw %d acked submissions", got, rep.OffersSubmitted)
	}
	if counts := store2.Stats(); counts.Assigned != int(rep.OffersAssigned) {
		t.Fatalf("recovered %d assignments, clients confirmed %d", counts.Assigned, rep.OffersAssigned)
	}
	srv.Close()
}
