// Command flexload is a closed-loop load generator for the mirabeld
// flex-offer API. Each of -c workers drives the full offer lifecycle
// against a running daemon — submit, accept, assign, with periodic list
// and stats reads — as fast as the server answers, for -duration.
// Latencies are recorded per operation in internal/obs histograms and a
// machine-readable JSON report (p50/p95/p99 per op, overall throughput)
// is written to -report.
//
// Usage:
//
//	flexload -base http://127.0.0.1:7654 -c 8 -duration 30s -seed 42 -report report.json
//
// Offer construction is seeded: worker w derives its generator from
// -seed+w, so two runs with the same seed and concurrency submit the
// same offer stream. Against a fault-injecting server (mirabeld
// -fault-profile), the error counts in the report measure how much of
// the injected fault rate the client side observed. -schedule-every
// additionally fires POST /schedule/run at a fixed period, so a load
// run can measure scheduling rounds interleaved with the lifecycle
// traffic (the "schedule" op in the report).
//
// Against a daemon running admission control, -overload marks the run
// as an intentional overload probe: shed responses (429/503) move out
// of the error counters into a dedicated report block that records the
// shed volume per status and operation and whether every shed carried
// the Retry-After hint; workers honour the hint before offering more
// load, modelling a well-behaved client under pushback.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/kpi"
	"repro/internal/market"
	"repro/internal/obs"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.BaseURL, "base", "http://127.0.0.1:7654", "mirabeld base URL")
	flag.IntVar(&cfg.Concurrency, "c", 4, "concurrent workers")
	flag.DurationVar(&cfg.Duration, "duration", 10*time.Second, "how long to drive load")
	flag.Int64Var(&cfg.Seed, "seed", 1, "offer-stream seed (worker w uses seed+w)")
	flag.DurationVar(&cfg.ScheduleEvery, "schedule-every", 0, "POST /schedule/run this often during the run (0 = never)")
	flag.BoolVar(&cfg.Overload, "overload", false, "overload mode: record 429/503 shed responses and Retry-After compliance in a distinct report block instead of counting them as errors")
	report := flag.String("report", "-", `report output path ("-" = stdout)`)
	flag.Parse()

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexload: %v\n", err)
		os.Exit(1)
	}
	out := os.Stdout
	var f *os.File
	if *report != "-" {
		f, err = os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexload: %v\n", err)
			os.Exit(1)
		}
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexload: %v\n", err)
		os.Exit(1)
	}
}

// config parameterises one load run.
type config struct {
	// BaseURL is the target daemon's root URL.
	BaseURL string
	// Concurrency is the number of closed-loop workers.
	Concurrency int
	// Duration bounds the run.
	Duration time.Duration
	// Seed derives each worker's offer stream (worker w uses Seed+w).
	Seed int64
	// ScheduleEvery, when positive, fires POST /schedule/run at this
	// period for the whole run — measuring scheduling rounds as one more
	// operation of the mixed workload. Zero disables it (targets without
	// the scheduling API, and the committed benchmark baseline).
	ScheduleEvery time.Duration
	// Overload marks a run that intentionally drives the target past its
	// admission capacity: shed responses (429/503) are expected behaviour
	// there, so they are recorded in the report's Overload block — shed
	// counts per status, per op, and Retry-After compliance — instead of
	// inflating the error counters.
	Overload bool
	// HTTPClient overrides the transport (tests inject the httptest
	// server's client); nil means a 10s-timeout default client.
	HTTPClient *http.Client
}

// OverloadReport is the -overload mode report block: how much of the
// offered load the server shed, split by status, and whether every shed
// response carried the Retry-After hint clients pace themselves by.
type OverloadReport struct {
	// Shed429 counts queue-overflow sheds (the client outran its share).
	Shed429 uint64 `json:"shed_429"`
	// Shed503 counts wait-timeout, drain and request-timeout sheds (the
	// server was the bottleneck or going away).
	Shed503 uint64 `json:"shed_503"`
	// ShedWithRetryAfter counts shed responses carrying a parseable
	// Retry-After header.
	ShedWithRetryAfter uint64 `json:"shed_with_retry_after"`
	// RetryAfterCompliant is true when every shed response carried the
	// hint — the contract docs/API.md promises.
	RetryAfterCompliant bool `json:"retry_after_compliant"`
	// MaxRetryAfterSeconds is the largest hint observed.
	MaxRetryAfterSeconds float64 `json:"max_retry_after_seconds"`
	// ShedByOp splits the sheds by operation.
	ShedByOp map[string]uint64 `json:"shed_by_op"`
}

// shedTracker accumulates shed observations across workers.
type shedTracker struct {
	shed429   atomic.Uint64
	shed503   atomic.Uint64
	withHint  atomic.Uint64
	maxHintNs atomic.Int64
	byOp      *obs.CounterVec
}

// observe records one shed response.
func (s *shedTracker) observe(op string, shed *market.ShedError) {
	switch shed.StatusCode {
	case http.StatusTooManyRequests:
		s.shed429.Add(1)
	default:
		s.shed503.Add(1)
	}
	if shed.RetryAfter > 0 {
		s.withHint.Add(1)
		for {
			cur := s.maxHintNs.Load()
			if int64(shed.RetryAfter) <= cur || s.maxHintNs.CompareAndSwap(cur, int64(shed.RetryAfter)) {
				break
			}
		}
	}
	s.byOp.With(opLabel(op)).Inc()
}

// report renders the tracker as the report block.
func (s *shedTracker) report() *OverloadReport {
	rep := &OverloadReport{
		Shed429:              s.shed429.Load(),
		Shed503:              s.shed503.Load(),
		ShedWithRetryAfter:   s.withHint.Load(),
		MaxRetryAfterSeconds: time.Duration(s.maxHintNs.Load()).Seconds(),
		ShedByOp:             make(map[string]uint64),
	}
	total := rep.Shed429 + rep.Shed503
	rep.RetryAfterCompliant = total > 0 && rep.ShedWithRetryAfter == total
	for _, op := range opNames {
		if n := s.byOp.With(opLabel(op)).Value(); n > 0 {
			rep.ShedByOp[op] = n
		}
	}
	return rep
}

// OpStats summarises one operation's latency distribution in the report.
type OpStats struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Report is flexload's machine-readable result: per-operation latency and
// errors, throughput, the offer lifecycle totals and, where the target
// has them, the overload and KPI blocks.
type Report struct {
	BaseURL             string             `json:"base_url"`
	Seed                int64              `json:"seed"`
	Concurrency         int                `json:"concurrency"`
	DurationSeconds     float64            `json:"duration_seconds"`
	Ops                 map[string]OpStats `json:"ops"`
	TotalOps            uint64             `json:"total_ops"`
	TotalErrors         uint64             `json:"total_errors"`
	ThroughputOpsPerSec float64            `json:"throughput_ops_per_sec"`
	OffersSubmitted     uint64             `json:"offers_submitted"`
	OffersAccepted      uint64             `json:"offers_accepted"`
	OffersAssigned      uint64             `json:"offers_assigned"`
	// Overload is the shed accounting of an -overload run; nil otherwise.
	Overload *OverloadReport `json:"overload,omitempty"`
	// KPI is the server's flexibility KPI report at the end of the run,
	// scraped from GET /kpi, with the generator's own offer ledger
	// reconciled against the server-side fold. Nil when the target has no
	// /kpi route (bare market.Server fixtures, pre-KPI daemons).
	KPI *KPIBlock `json:"kpi,omitempty"`
}

// KPIBlock embeds the target's KPI report plus the reconciliation of the
// load generator's client-side counters against the server-side fold.
// For the workers' own offers (owners load-<seed>-w<i>) submissions and
// acceptances must agree exactly: the client only counts an op after a
// 2xx answer, the daemon's fault injection rejects requests before they
// reach the store, and no other actor performs those transitions — so
// every client-confirmed submit/accept is exactly one folded store
// event. Assignments are a lower bound: a concurrent scheduling round
// (-schedule-every, or the daemon's own scheduler) may assign a worker's
// accepted offer first, in which case the worker's own assign fails a
// state check and is never client-counted. A non-empty
// ReconciliationErrors therefore means the KPI fold lost or
// double-counted an event.
type KPIBlock struct {
	Report               kpi.Report `json:"report"`
	ReconciliationErrors []string   `json:"reconciliation_errors"`
}

// opNames are the operations the generator performs: the worker
// lifecycle in order, the periodic reads, and the (opt-in,
// -schedule-every) scheduling round.
var opNames = []string{"submit", "accept", "assign", "list", "stats", "schedule"}

// listPageLimit is the page size the periodic list read requests.
const listPageLimit = 100

// opLabel bounds the metric label set to the known operations, keeping
// the per-op vec families at fixed cardinality.
func opLabel(op string) string {
	switch op {
	case "submit":
		return "submit"
	case "accept":
		return "accept"
	case "assign":
		return "assign"
	case "list":
		return "list"
	case "stats":
		return "stats"
	case "schedule":
		return "schedule"
	default:
		return "other"
	}
}

// run drives the closed loop and assembles the report. It is the testable
// core of the command: the soak test calls it against an httptest server.
func run(ctx context.Context, cfg config) (Report, error) {
	if cfg.Concurrency <= 0 {
		return Report{}, fmt.Errorf("concurrency must be positive, got %d", cfg.Concurrency)
	}
	if cfg.Duration <= 0 {
		return Report{}, fmt.Errorf("duration must be positive, got %v", cfg.Duration)
	}
	httpClient := cfg.HTTPClient
	if httpClient == nil {
		// The default transport keeps only 2 idle connections per host, so
		// any higher concurrency redials TCP on most requests and the
		// generator measures connection churn instead of the store. Keep
		// one persistent connection per worker.
		transport := http.DefaultTransport.(*http.Transport).Clone()
		transport.MaxIdleConnsPerHost = cfg.Concurrency
		httpClient = &http.Client{Timeout: 10 * time.Second, Transport: transport}
	}

	reg := obs.NewRegistry()
	latency := reg.NewHistogramVec("flexload_op_seconds", "per-operation latency", nil, "op")
	errs := reg.NewCounterVec("flexload_op_errors_total", "per-operation errors", "op")
	var submitted, accepted, assigned obs.Counter
	var shed *shedTracker
	if cfg.Overload {
		shed = &shedTracker{byOp: reg.NewCounterVec("flexload_op_shed_total", "per-operation shed responses", "op")}
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker{
				client:    &market.Client{BaseURL: cfg.BaseURL, HTTPClient: httpClient},
				rng:       rand.New(rand.NewSource(cfg.Seed + int64(w))),
				id:        fmt.Sprintf("load-%d-w%d", cfg.Seed, w),
				latency:   latency,
				errs:      errs,
				submitted: &submitted,
				accepted:  &accepted,
				assigned:  &assigned,
				shed:      shed,
			}.loop(ctx)
		}(w)
	}
	if cfg.ScheduleEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(cfg.ScheduleEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					t0 := time.Now()
					err := postScheduleRun(ctx, httpClient, cfg.BaseURL)
					latency.With(opLabel("schedule")).Observe(time.Since(t0).Seconds())
					if err != nil && ctx.Err() == nil {
						errs.With(opLabel("schedule")).Inc()
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		BaseURL:         cfg.BaseURL,
		Seed:            cfg.Seed,
		Concurrency:     cfg.Concurrency,
		DurationSeconds: elapsed.Seconds(),
		Ops:             make(map[string]OpStats, len(opNames)),
		OffersSubmitted: submitted.Value(),
		OffersAccepted:  accepted.Value(),
		OffersAssigned:  assigned.Value(),
	}
	if shed != nil {
		rep.Overload = shed.report()
	}
	for _, op := range opNames {
		snap := latency.With(opLabel(op)).Snapshot()
		st := OpStats{
			Count:  snap.Count,
			Errors: errs.With(opLabel(op)).Value(),
			P50Ms:  snap.Quantile(0.50) * 1000,
			P95Ms:  snap.Quantile(0.95) * 1000,
			P99Ms:  snap.Quantile(0.99) * 1000,
		}
		// An op the run never performed (schedule without -schedule-every)
		// has no distribution — its quantiles are NaN, which the JSON
		// encoder refuses. Leave it out of the report instead.
		if st.Count == 0 && st.Errors == 0 {
			continue
		}
		rep.Ops[op] = st
		rep.TotalOps += st.Count
		rep.TotalErrors += st.Errors
	}
	if elapsed > 0 {
		rep.ThroughputOpsPerSec = float64(rep.TotalOps) / elapsed.Seconds()
	}
	// Best effort: soak tests drive bare market.Server instances that have
	// no /kpi route, and those produce a report without the block.
	if kpiRep, err := fetchKPI(httpClient, cfg.BaseURL); err == nil {
		rep.KPI = reconcileKPI(kpiRep, cfg, rep)
	}
	return rep, nil
}

// fetchKPI scrapes the target's KPI report.
func fetchKPI(httpClient *http.Client, baseURL string) (kpi.Report, error) {
	var rep kpi.Report
	resp, err := httpClient.Get(baseURL + "/kpi")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("GET /kpi: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// reconcileKPI sums the server-side KPI counts over this run's worker
// owners and diffs them against the client-side ledger. The owner filter
// makes the check robust to traffic the generator did not create (seeded
// offers, other flexload runs against the same daemon).
func reconcileKPI(kpiRep kpi.Report, cfg config, rep Report) *KPIBlock {
	block := &KPIBlock{Report: kpiRep, ReconciliationErrors: []string{}}
	var submitted, accepted, assigned uint64
	for w := 0; w < cfg.Concurrency; w++ {
		v, ok := kpiRep.Owners[fmt.Sprintf("load-%d-w%d", cfg.Seed, w)]
		if !ok {
			continue
		}
		submitted += v.Submitted
		accepted += v.Accepted
		assigned += v.Assigned
	}
	check := func(name string, server, client uint64) {
		if server != client {
			block.ReconciliationErrors = append(block.ReconciliationErrors,
				fmt.Sprintf("%s: server KPI fold has %d, client confirmed %d", name, server, client))
		}
	}
	check("submitted", submitted, rep.OffersSubmitted)
	check("accepted", accepted, rep.OffersAccepted)
	// Client-confirmed assignments are a floor, not an identity: a
	// scheduling round may win the race for an accepted offer (see
	// KPIBlock).
	if assigned < rep.OffersAssigned {
		block.ReconciliationErrors = append(block.ReconciliationErrors,
			fmt.Sprintf("assigned: server KPI fold has %d, below the %d the clients confirmed", assigned, rep.OffersAssigned))
	}
	return block
}

// postScheduleRun triggers one scheduling round on the target daemon.
// Anything but a 200 is an error: the scheduling API answers every
// organic failure with a JSON envelope and a non-200 status.
func postScheduleRun(ctx context.Context, httpClient *http.Client, baseURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/schedule/run", nil)
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /schedule/run: %s", resp.Status)
	}
	// Drain so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// worker is one closed-loop driver: it owns a seeded offer generator and
// pushes offers through the full lifecycle until the context ends.
type worker struct {
	client    *market.Client
	rng       *rand.Rand
	id        string
	latency   *obs.HistogramVec
	errs      *obs.CounterVec
	submitted *obs.Counter
	accepted  *obs.Counter
	assigned  *obs.Counter
	// shed, when non-nil (-overload), absorbs 429/503 responses into the
	// overload accounting instead of the error counters.
	shed *shedTracker
}

func (w worker) loop(ctx context.Context) {
	for i := 0; ctx.Err() == nil; i++ {
		offer := w.makeOffer(i)
		if !w.timed(ctx, "submit", func() error { return w.client.Submit(offer) }) {
			continue
		}
		w.submitted.Inc()
		if !w.timed(ctx, "accept", func() error { return w.client.Accept(offer.ID) }) {
			continue
		}
		w.accepted.Inc()
		energies := make([]float64, len(offer.Profile))
		for k, s := range offer.Profile {
			energies[k] = (s.MinEnergy + s.MaxEnergy) / 2
		}
		if w.timed(ctx, "assign", func() error {
			return w.client.Assign(offer.ID, offer.EarliestStart, energies)
		}) {
			w.assigned.Inc()
		}
		// Sprinkle reads across the write stream at a fixed ratio.
		if i%10 == 5 {
			w.timed(ctx, "stats", func() error { _, err := w.client.Stats(); return err })
		}
		if i%25 == 12 {
			// Paginated read: one bounded page of assigned offers, the way
			// a dashboard or scheduler polls a large store. The raw variant
			// frames the page without materialising records, so the timing
			// measures the server and the transfer, not this process's own
			// reflection decode on the shared CPU.
			w.timed(ctx, "list", func() error {
				_, err := w.client.ListPageRaw(market.ListQuery{States: []market.State{market.Assigned}, Limit: listPageLimit})
				return err
			})
		}
	}
}

// timed runs op, records its latency and outcome, and reports success.
// Calls that fail because the run's deadline expired mid-flight are not
// counted as errors — they are the shutdown, not the server. In
// overload mode a shed response (429/503) is expected behaviour: it
// lands in the shed tracker, and the worker honours the server's
// Retry-After hint before offering more load.
func (w worker) timed(ctx context.Context, op string, fn func() error) bool {
	t0 := time.Now()
	err := fn()
	w.latency.With(opLabel(op)).Observe(time.Since(t0).Seconds())
	if err != nil {
		if ctx.Err() != nil {
			return false
		}
		var shedErr *market.ShedError
		if w.shed != nil && errors.As(err, &shedErr) {
			w.shed.observe(op, shedErr)
			if shedErr.RetryAfter > 0 {
				timer := time.NewTimer(shedErr.RetryAfter)
				select {
				case <-timer.C:
				case <-ctx.Done():
				}
				timer.Stop()
			}
			return false
		}
		w.errs.With(opLabel(op)).Inc()
		return false
	}
	return true
}

// makeOffer builds the i-th offer of this worker's deterministic stream:
// 2–8 slices of 15 minutes with randomised energy bounds, deadlines far
// enough out that they never lapse during a run. The start window sits on
// the 15-minute wall-clock grid so a daemon running scheduling rounds
// (-schedule-every, default resolution) can place the load's offers; the
// truncation moves EarliestStart at most 15 minutes before now+3h, still
// comfortably after the now+2h assignment deadline.
func (w worker) makeOffer(i int) *flexoffer.FlexOffer {
	now := time.Now().UTC().Truncate(time.Second)
	slices := 2 + w.rng.Intn(7)
	profile := make([]flexoffer.Slice, slices)
	for k := range profile {
		lo := 0.1 + w.rng.Float64()
		profile[k] = flexoffer.Slice{
			Duration:  15 * time.Minute,
			MinEnergy: lo,
			MaxEnergy: lo + w.rng.Float64(),
		}
	}
	fo := &flexoffer.FlexOffer{
		ID:             fmt.Sprintf("%s-%06d", w.id, i),
		ConsumerID:     w.id,
		CreationTime:   now,
		AcceptanceTime: now.Add(time.Hour),
		AssignmentTime: now.Add(2 * time.Hour),
		EarliestStart:  now.Add(3 * time.Hour).Truncate(15 * time.Minute),
		LatestStart:    now.Add(8 * time.Hour),
		Profile:        profile,
	}
	if err := fo.Validate(); err != nil {
		// The generator produces valid offers by construction; a failure
		// here is a flexload bug, not a server condition to measure.
		panic(fmt.Sprintf("flexload: generated invalid offer: %v", err))
	}
	return fo
}
