// Command mirabeld serves the flex-offer collection API — the network face
// of the MIRABEL data-management prototype the paper's extraction tools
// feed ([3]: near real-time flex-offer collection). Offers are submitted,
// accepted/rejected and assigned over HTTP; a background sweeper expires
// offers whose lifecycle deadlines lapse. Both the sweeper and the HTTP
// server shut down cleanly on SIGINT/SIGTERM.
//
// The daemon is observable out of the box: /metrics exposes request,
// store and pipeline metrics in Prometheus text format (?format=json for
// JSON), /healthz reports liveness, /readyz flips to 200 once startup
// seeding has finished, and -pprof mounts net/http/pprof under
// /debug/pprof/. The full HTTP contract is documented in docs/API.md.
//
// The daemon protects itself under overload: admission control bounds
// per-class concurrency (reads vs writes) with a short bounded wait
// queue and sheds the excess with 429/503 plus a Retry-After hint
// (-admit-reads, -admit-writes, -admit-queue, -admit-wait);
// -request-timeout bounds every non-ops request end to end; and the
// in-process event-stream consumers (scheduler, KPI) run on bounded
// subscriptions (-event-high-water) that recover from overflow by
// replay resync instead of growing memory without limit. On SIGTERM the
// daemon drains: /readyz flips to 503, new non-ops work is refused,
// in-flight requests finish within -drain-timeout, and the final
// journal snapshot is taken before exit. docs/ARCHITECTURE.md details
// the design; docs/API.md documents the overload response contract.
//
// A directory of household CSVs can be bulk-extracted straight into the
// store at startup through the concurrent pipeline (internal/pipeline), so
// a whole portfolio's offers are collected before the daemon reports
// ready:
//
//	mirabeld -addr :7654 -sweep 30s -seed-dir data/ -seed-approach peak -seed-jobs 8
//
// Historical datasets carry lifecycle deadlines in the past; -clock pins
// the store's logical clock for such replays:
//
//	mirabeld -seed-dir data/ -clock 2012-06-04T00:00:00Z
//
// For resilience testing, -fault-profile injects a deterministic, seeded
// fault schedule (internal/faultinject) into both the HTTP routes and the
// startup seeding path — errors, latency, panics and partial batches at
// configured rates, replayable from the seed:
//
//	mirabeld -fault-profile 'seed=42,error=0.1,latency=0.05:20ms,panic=0.01'
//
// Injected faults flow through the observability middleware, so they are
// visible on /metrics (faultinject_decisions, request counters, recovered
// panics) like organic failures; the seeding path rides the pipeline's
// resilient sink, so faulted submissions are retried and anything that
// exhausts the budget is dead-lettered and logged rather than lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kpi"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// config gathers the daemon's flags so run stays testable.
type config struct {
	addr          string
	sweep         time.Duration
	clockAt       string
	seedDir       string
	seedApproach  string
	seedFlexPct   float64
	seedJobs      int
	pprof         bool
	faultProfile  string
	dataDir       string
	fsync         string
	snapshotEvery int
	shards        int

	scheduleEvery      time.Duration
	scheduleHorizon    time.Duration
	scheduleResolution time.Duration
	resSeed            int64

	requestTimeout time.Duration
	drainTimeout   time.Duration
	admitWrites    int
	admitReads     int
	admitQueue     int
	admitWait      time.Duration
	eventHighWater int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":7654", "listen address")
	flag.DurationVar(&cfg.sweep, "sweep", 30*time.Second, "deadline sweep interval (0 disables)")
	flag.StringVar(&cfg.clockAt, "clock", "", "fix the store's logical clock to this RFC3339 time (historical replays; default: live)")
	flag.StringVar(&cfg.seedDir, "seed-dir", "", "bulk-extract every CSV in this directory into the store at startup")
	flag.StringVar(&cfg.seedApproach, "seed-approach", "peak", "extraction approach for -seed-dir (basic | peak | random)")
	flag.Float64Var(&cfg.seedFlexPct, "seed-flexpct", 0.05, "flexible share for -seed-dir extraction")
	flag.IntVar(&cfg.seedJobs, "seed-jobs", 0, "worker count for reading and extracting -seed-dir (0 = GOMAXPROCS)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.StringVar(&cfg.faultProfile, "fault-profile", "", `inject seeded faults into HTTP routes and seeding (e.g. "seed=42,error=0.1,latency=0.05:20ms"; empty disables)`)
	flag.StringVar(&cfg.dataDir, "data-dir", "", "journal every offer transition to this directory and recover state from it on boot (empty = in-memory only)")
	flag.StringVar(&cfg.fsync, "fsync", "always", "journal fsync policy: always (durable per write), interval (bounded loss window), never (OS decides)")
	flag.IntVar(&cfg.snapshotEvery, "snapshot-every", 4096, "journaled events between automatic snapshots (0 disables; a final snapshot is always taken on shutdown)")
	flag.IntVar(&cfg.shards, "shards", 0, "store shard count; with -data-dir, 0 adopts the directory's existing count (1 on a fresh directory) and a non-zero value must match it")
	flag.DurationVar(&cfg.scheduleEvery, "schedule-every", 0, "run a scheduling round this often (0 disables the periodic loop; POST /schedule/run always works)")
	flag.DurationVar(&cfg.scheduleHorizon, "schedule-horizon", 24*time.Hour, "scheduling horizon length")
	flag.DurationVar(&cfg.scheduleResolution, "schedule-resolution", 15*time.Minute, "scheduling grid resolution (must divide the horizon)")
	flag.Int64Var(&cfg.resSeed, "res-seed", 1, "seed for the wind-farm supply simulation behind the scheduler's forecast")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 30*time.Second, "server-wide request deadline; expired requests answer 503 with Retry-After (0 disables)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown drain budget for in-flight requests")
	flag.IntVar(&cfg.admitWrites, "admit-writes", 256, "max concurrent write requests (POST/PUT/DELETE); 0 disables write admission control")
	flag.IntVar(&cfg.admitReads, "admit-reads", 512, "max concurrent read requests (GET/HEAD); 0 disables read admission control")
	flag.IntVar(&cfg.admitQueue, "admit-queue", 512, "per-class wait-queue depth beyond the concurrency limit; arrivals past it answer 429")
	flag.DurationVar(&cfg.admitWait, "admit-wait", time.Second, "max time a queued request waits for an admission slot before answering 503")
	flag.IntVar(&cfg.eventHighWater, "event-high-water", 65536, "bound on each event-stream subscription queue; overflowing consumers resync via replay (0 = unbounded)")
	logLevel := flag.String("log-level", "info", "minimum log level (debug | info | warn | error)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirabeld: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	if err := run(cfg, logger); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// run is the daemon body. Every failure returns an error instead of
// calling log.Fatalf, so deferred cleanup (signal handler release,
// graceful server shutdown) always executes.
func run(cfg config, logger *obs.Logger) error {
	var clock func() time.Time
	if cfg.clockAt != "" {
		at, err := time.Parse(time.RFC3339, cfg.clockAt)
		if err != nil {
			return fmt.Errorf("-clock: %w", err)
		}
		clock = func() time.Time { return at }
	}

	// With -data-dir, all state is recovered synchronously here — before
	// the listener starts and long before /readyz can flip healthy — and
	// every later transition is journaled before it is acknowledged.
	var store *market.Store
	var journal *market.Journal
	var fsyncPolicy wal.SyncPolicy
	if cfg.dataDir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return fmt.Errorf("-fsync: %w", err)
		}
		fsyncPolicy = policy
		store, journal, err = market.OpenJournaled(market.JournalOptions{
			Dir:           cfg.dataDir,
			Shards:        cfg.shards,
			Policy:        policy,
			SnapshotEvery: cfg.snapshotEvery,
			Clock:         clock,
		})
		if err != nil {
			return fmt.Errorf("-data-dir %s: %w", cfg.dataDir, err)
		}
		// The deferred close takes the final snapshot on every exit path,
		// including graceful SIGINT/SIGTERM shutdown.
		defer func() {
			if err := journal.Close(); err != nil {
				logger.Warn("journal close", "err", err)
			}
		}()
		rec := journal.Recovery()
		logger.Info("state recovered",
			"dir", cfg.dataDir, "fsync", policy, "shards", journal.ShardCount(),
			"offers", rec.Offers, "snapshot_used", rec.SnapshotUsed,
			"events_replayed", rec.EventsReplayed, "hand_decoded", rec.EventsHandDecoded,
			"duration", rec.Duration.Round(time.Millisecond),
			"read", rec.ReadTime.Round(time.Millisecond), "decode", rec.DecodeTime.Round(time.Millisecond),
			"apply", rec.ApplyTime.Round(time.Millisecond))
		if rec.WAL.TornTail {
			logger.Warn("journal had a torn final record; truncated",
				"bytes", rec.WAL.TornBytes)
		}
	} else {
		store = market.NewShardedStore(cfg.shards, clock)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One registry backs everything: HTTP middleware, store gauges,
	// pipeline telemetry. /metrics renders it all.
	reg := obs.NewRegistry()
	httpMetrics := obs.NewHTTPMetrics(reg, "mirabeld")
	storeMetrics := market.RegisterStoreMetrics(reg, store)
	if journal != nil {
		market.RegisterJournalMetrics(reg, journal)
	}
	telemetry := pipeline.NewTelemetry(reg)

	faults, err := faultSchedule(cfg.faultProfile, reg)
	if err != nil {
		return err
	}
	apiOpts := []market.ServerOption{market.WithObservability(httpMetrics, logger)}
	if faults != nil {
		logger.Warn("fault injection active", "profile", cfg.faultProfile)
		apiOpts = append(apiOpts, market.WithMiddleware(func(next http.Handler) http.Handler {
			return faultinject.Middleware(next, faults)
		}))
	}

	// The scheduler service rides the recovered store: it bootstraps its
	// aggregator from the store's event stream and, with -data-dir, keeps
	// its decision ledger next to the offer journal so both recover from
	// the same directory.
	schedCfg := sched.Config{
		Store:          store,
		Horizon:        cfg.scheduleHorizon,
		Resolution:     cfg.scheduleResolution,
		SupplySeed:     cfg.resSeed,
		Clock:          clock,
		Logger:         logger,
		EventHighWater: cfg.eventHighWater,
	}
	if cfg.dataDir != "" {
		schedCfg.LedgerDir = filepath.Join(cfg.dataDir, "sched")
		schedCfg.Policy = fsyncPolicy
	}
	schedSvc, err := sched.New(schedCfg)
	if err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	defer func() {
		if err := schedSvc.Close(); err != nil {
			logger.Warn("scheduler close", "err", err)
		}
	}()
	sched.RegisterServiceMetrics(reg, schedSvc)
	schedAPI := obs.Middleware(schedSvc.Handler(), httpMetrics, market.RouteLabel, logger)

	// The KPI service rides the same event stream: it bootstraps from the
	// recovered store through a market.Follower and folds every later lifecycle
	// transition, so GET /kpi always reflects the store exactly. Its peak
	// buckets share the scheduler's grid resolution.
	kpiSvc, err := kpi.NewService(kpi.ServiceConfig{
		Store:          store,
		Config:         kpi.Config{Resolution: cfg.scheduleResolution},
		EventHighWater: cfg.eventHighWater,
		Logger:         logger,
	})
	if err != nil {
		return fmt.Errorf("kpi: %w", err)
	}
	defer kpiSvc.Close()
	kpi.RegisterServiceMetrics(reg, kpiSvc)
	kpiAPI := obs.Middleware(kpiSvc.Handler(), httpMetrics, market.RouteLabel, logger)

	var hlt health
	api := market.NewServer(store, apiOpts...)

	// The overload stack wraps the whole surface: admission control
	// classifies each request (ops / read / write), bounds per-class
	// concurrency plus a short wait queue, and sheds the excess with
	// 429/503 + Retry-After; the timeout layer above it bounds every
	// non-ops request — queue wait included — by -request-timeout. The
	// operational probes bypass both, so /healthz, /readyz and /metrics
	// answer even when the daemon is saturated.
	ctrl := admission.NewController(admission.Config{
		Reads:  admission.Limits{MaxConcurrent: cfg.admitReads, MaxQueue: cfg.admitQueue, MaxWait: cfg.admitWait},
		Writes: admission.Limits{MaxConcurrent: cfg.admitWrites, MaxQueue: cfg.admitQueue, MaxWait: cfg.admitWait},
	})
	admission.RegisterMetrics(reg, ctrl)
	obs.RegisterRuntimeMetrics(reg)
	handler := admission.WithTimeout(
		ctrl.Middleware(newHandler(api, schedAPI, kpiAPI, reg, &hlt, cfg.pprof)),
		cfg.requestTimeout,
		func(r *http.Request) bool { return ctrl.ClassOf(r) == admission.ClassOps },
	)

	srv := &http.Server{Addr: cfg.addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", cfg.addr, "pprof", cfg.pprof, "sweep", cfg.sweep)

	if cfg.sweep > 0 {
		go sweeper(ctx, store, cfg.sweep, storeMetrics, logger)
	}
	if cfg.scheduleEvery > 0 {
		logger.Info("periodic scheduling enabled",
			"every", cfg.scheduleEvery, "horizon", cfg.scheduleHorizon, "resolution", cfg.scheduleResolution)
		go schedSvc.RunPeriodically(ctx, cfg.scheduleEvery)
	}

	// Seed while the server is already answering /healthz; /readyz stays
	// 503 until the store is populated, then flips to 200.
	seedc := make(chan error, 1)
	go func() {
		if cfg.seedDir != "" {
			if err := seedStore(ctx, store, kpiSvc, telemetry, logger, clock, faults, cfg.seedDir, cfg.seedApproach, cfg.seedFlexPct, cfg.seedJobs); err != nil {
				seedc <- fmt.Errorf("seed: %w", err)
				return
			}
		}
		hlt.ready.Store(true)
		logger.Info("ready", "seeded", cfg.seedDir != "")
		seedc <- nil
	}()

	for {
		select {
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return fmt.Errorf("serve: %w", err)
		case err := <-seedc:
			if err != nil {
				shutdownErr := shutdown(srv, logger, cfg.drainTimeout)
				if shutdownErr != nil {
					logger.Warn("shutdown after failed seed", "err", shutdownErr)
				}
				return err
			}
			seedc = nil // seeded; a nil channel never fires again
		case <-ctx.Done():
			// Drain-safe shutdown: flip /readyz to 503 and refuse new
			// non-ops work first, then let in-flight requests finish
			// within the drain budget. The deferred journal close takes
			// the final snapshot after the listener stops, so every
			// acknowledged offer is on disk before exit.
			hlt.draining.Store(true)
			ctrl.BeginDrain()
			logger.Info("shutting down; draining",
				"in_flight", ctrl.InFlight(), "drain_timeout", cfg.drainTimeout)
			return shutdown(srv, logger, cfg.drainTimeout)
		}
	}
}

// faultSchedule parses -fault-profile into a live schedule registered on
// reg, or (nil, nil) when the flag is empty.
func faultSchedule(profile string, reg *obs.Registry) (*faultinject.Schedule, error) {
	if profile == "" {
		return nil, nil
	}
	prof, err := faultinject.ParseProfile(profile)
	if err != nil {
		return nil, fmt.Errorf("-fault-profile: %w", err)
	}
	schedule := faultinject.NewSchedule(prof)
	faultinject.RegisterMetrics(reg, schedule)
	return schedule, nil
}

// shutdown drains the server gracefully, bounded by the drain budget.
func shutdown(srv *http.Server, logger *obs.Logger, drain time.Duration) error {
	if drain <= 0 {
		drain = 5 * time.Second
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("stopped")
	return nil
}

// sweeper periodically expires overdue offers until the context ends.
func sweeper(ctx context.Context, store *market.Store, interval time.Duration, metrics *market.StoreMetrics, logger *obs.Logger) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			n, err := store.ExpireOverdue()
			if err != nil {
				logger.Warn("sweep failed", "err", err)
				continue
			}
			if n > 0 {
				metrics.SweeperExpired.Add(uint64(n))
				logger.Debug("sweep expired overdue offers", "expired", n)
			}
		}
	}
}

// seedStore bulk-extracts every *.csv under dir through the concurrent
// pipeline and submits the resulting offers into the store over the
// resilient sink: transient submission failures retry with backoff, and
// offers that exhaust the budget are dead-lettered, logged, and booked on
// kpis against their ConsumerID, never silently dropped. The files are
// read first, on the jobs workers, so an unreadable file fails the seed
// before anything reaches the store or its journal. faults, when non-nil,
// injects the -fault-profile schedule between the retry layer and the
// store. kpis, telemetry and logger may be nil; clock is the store's
// logical clock (nil for live), injected into the pipeline so -clock
// replays report deterministic batch timings.
func seedStore(ctx context.Context, store *market.Store, kpis *kpi.Service, telemetry *pipeline.Telemetry, logger *obs.Logger, clock func() time.Time, faults *faultinject.Schedule, dir, approach string, flexPct float64, jobs int) error {
	all, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	// Skip flexextract batch outputs that may sit next to the inputs.
	files := all[:0]
	for _, path := range all {
		if !strings.HasSuffix(path, ".modified.csv") {
			files = append(files, path)
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return fmt.Errorf("no *.csv files under %s", dir)
	}

	newExtractor, err := core.Approach(approach)
	if err != nil {
		return err
	}

	series, err := readSeedFiles(ctx, files, jobs)
	if err != nil {
		return err
	}
	batch := make([]pipeline.Job, len(files))
	seedOf := make(map[string]int64, len(batch))
	for i, path := range files {
		id := strings.TrimSuffix(filepath.Base(path), ".csv")
		batch[i] = pipeline.Job{ID: id, Series: series[i]}
		seedOf[id] = int64(i + 1)
	}

	storeSink := &pipeline.StoreSink{Store: store}
	var inner pipeline.Sink = storeSink
	if faults != nil {
		inner = faultinject.WrapSink(storeSink, faults)
	}
	sink := pipeline.NewResilientSink(inner, pipeline.DefaultRetryPolicy(), telemetry)
	cfg := pipeline.Config{
		Workers:   jobs,
		Telemetry: telemetry,
		Clock:     clock,
		NewExtractor: func(j pipeline.Job) core.Extractor {
			params := core.DefaultParams()
			params.FlexPercentage = flexPct
			params.Seed = seedOf[j.ID]
			params.ConsumerID = j.ID
			return newExtractor(params)
		},
	}
	stats, err := pipeline.RunJobs(ctx, cfg, batch, sink)
	if err != nil {
		return err
	}
	for _, je := range stats.JobErrors {
		logger.Warn("seed job failed", "job", je.JobID, "err", je.Err)
	}
	for _, dl := range sink.DeadLetters() {
		logger.Warn("seed offers dead-lettered", "job", dl.JobID, "offers", len(dl.Offers), "attempts", dl.Attempts, "err", dl.Err)
		if kpis != nil {
			for _, f := range dl.Offers {
				kpis.ObserveDeadLetters(f.ConsumerID, 1)
			}
		}
	}
	submitted, rejected := storeSink.Counts()
	kv := []any{
		"offers", submitted, "series", stats.SeriesProcessed, "batch", len(batch),
		"rejected", rejected, "extract_errors", stats.Errors,
		"retries", stats.SinkRetries, "dead_lettered", stats.DeadLettered,
	}
	// A pinned clock stands still, so the pipeline's wall time and
	// speedup read zero under -clock; only the live clock measures them.
	if clock == nil {
		kv = append(kv, "wall", stats.Wall.Round(time.Millisecond), "speedup", fmt.Sprintf("%.2fx", stats.Speedup()))
	}
	logger.Info("seed done", append(kv, "workers", stats.Workers)...)
	if rejected > 0 {
		return fmt.Errorf("%d offers rejected by the store (first: %v); historical data may need -clock", rejected, storeSink.FirstErr())
	}
	if stats.Errors > 0 && stats.SeriesProcessed == 0 {
		return errors.New("every series failed extraction")
	}
	return nil
}

// readSeedFiles reads the CSV files on up to jobs goroutines (0 =
// GOMAXPROCS) and returns their series indexed like files. It returns
// only once every read is done, and its error names the first bad file in
// files' order, so the outcome does not depend on the interleaving.
func readSeedFiles(ctx context.Context, files []string, jobs int) ([]*timeseries.Series, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	series := make([]*timeseries.Series, len(files))
	errs := make([]error, len(files))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(jobs, len(files)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(files) {
					return
				}
				// The per-file check keeps a large seed responsive to
				// SIGINT: the extraction pipeline is already cancellable,
				// but without this a shutdown would still wait for every
				// CSV to be read first.
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("seeding cancelled: %w", err)
					return
				}
				series[i], errs[i] = readSeedFile(files[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return series, nil
}

// readSeedFile reads one household CSV.
func readSeedFile(path string) (*timeseries.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	series, err := timeseries.ReadCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return series, nil
}
