package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/kpi"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/wal"
)

// The option values cmd/mirabeld applies when its flags are left at their
// defaults; the in-process stack uses the same ones.
const (
	snapshotEvery      = 4096
	scheduleHorizon    = 24 * time.Hour
	scheduleResolution = 15 * time.Minute
	resSeed            = 1
	eventHighWater     = 65536
	requestTimeout     = 30 * time.Second
	admitReads         = 512
	admitWrites        = 256
	admitQueue         = 512
	admitWait          = time.Second
	seedFlexPct        = 0.05
)

// stack is mirabeld's wiring assembled in this process from the same
// public constructors cmd/mirabeld calls, with the tracer's wrappers at
// each layer boundary. It serves on loopback like the real daemon.
type stack struct {
	cfg     daemonConfig
	tr      *tracer
	store   *market.Store
	journal *market.Journal
	sched   *sched.Service
	kpi     *kpi.Service
	srv     *http.Server
	listen  string
	cancel  context.CancelFunc
	loops   sync.WaitGroup
	closed  bool
}

// startStack assembles and starts the stack for cfg, seeding it when
// cfg.seedDir is set, and returns once it would answer /readyz with 200.
func startStack(cfg daemonConfig, tr *tracer) (*stack, time.Duration, error) {
	begin := time.Now()
	clock := func() time.Time { return cfg.clock }
	s := &stack{cfg: cfg, tr: tr}
	var fsys wal.FS
	if tr != nil {
		fsys = traceFS{FS: wal.DiskFS, tr: tr}
	}
	var policy wal.SyncPolicy
	if cfg.dataDir != "" {
		var err error
		if policy, err = wal.ParseSyncPolicy(cfg.fsync); err != nil {
			return nil, 0, err
		}
		tr.timed(spanOpenJournal, -1, func() {
			s.store, s.journal, err = market.OpenJournaled(market.JournalOptions{
				Dir: cfg.dataDir, Shards: cfg.shards, Policy: policy,
				SnapshotEvery: snapshotEvery, FS: fsys, Clock: clock,
			})
		})
		if err != nil {
			return nil, 0, fmt.Errorf("open journal: %w", err)
		}
	} else {
		s.store = market.NewShardedStore(cfg.shards, clock)
	}

	reg := obs.NewRegistry()
	httpMetrics := obs.NewHTTPMetrics(reg, "mirabeld")
	market.RegisterStoreMetrics(reg, s.store)
	if s.journal != nil {
		market.RegisterJournalMetrics(reg, s.journal)
	}
	telemetry := pipeline.NewTelemetry(reg)

	schedCfg := sched.Config{
		Store: s.store, Horizon: scheduleHorizon, Resolution: scheduleResolution,
		SupplySeed: resSeed, Clock: clock, EventHighWater: eventHighWater,
	}
	if cfg.dataDir != "" {
		schedCfg.LedgerDir = filepath.Join(cfg.dataDir, "sched")
		schedCfg.Policy = policy
		schedCfg.FS = fsys
	}
	var err error
	if s.sched, err = sched.New(schedCfg); err != nil {
		s.closeStores()
		return nil, 0, fmt.Errorf("scheduler: %w", err)
	}
	sched.RegisterServiceMetrics(reg, s.sched)
	schedAPI := obs.Middleware(tr.inner(spanRoute, s.sched.Handler(), nil), httpMetrics, market.RouteLabel, nil)

	if s.kpi, err = kpi.NewService(kpi.ServiceConfig{
		Store: s.store, Config: kpi.Config{Resolution: scheduleResolution}, EventHighWater: eventHighWater,
	}); err != nil {
		s.closeStores()
		return nil, 0, fmt.Errorf("kpi: %w", err)
	}
	kpi.RegisterServiceMetrics(reg, s.kpi)
	kpiAPI := obs.Middleware(tr.inner(spanRoute, s.kpi.Handler(), nil), httpMetrics, market.RouteLabel, nil)

	api := market.NewServer(s.store,
		market.WithObservability(httpMetrics, nil),
		market.WithMiddleware(func(h http.Handler) http.Handler { return tr.inner(spanRoute, h, s.store.ShardIndex) }))
	ctrl := admission.NewController(admission.Config{
		Reads:  admission.Limits{MaxConcurrent: admitReads, MaxQueue: admitQueue, MaxWait: admitWait},
		Writes: admission.Limits{MaxConcurrent: admitWrites, MaxQueue: admitQueue, MaxWait: admitWait},
	})
	admission.RegisterMetrics(reg, ctrl)
	obs.RegisterRuntimeMetrics(reg)
	var ready atomic.Bool
	handler := tr.outer(admission.WithTimeout(
		ctrl.Middleware(tr.inner(spanAdmitted, serveMux(api, schedAPI, kpiAPI, reg, &ready), nil)),
		requestTimeout,
		func(r *http.Request) bool { return ctrl.ClassOf(r) == admission.ClassOps },
	))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStores()
		return nil, 0, err
	}
	s.listen = ln.Addr().String()
	s.srv = &http.Server{Handler: handler}
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once kill closes the server
	}()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if cfg.scheduleEvery > 0 {
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			s.sched.RunPeriodically(ctx, cfg.scheduleEvery)
		}()
	}
	if cfg.seedDir != "" {
		tr.timed(spanSetup, -1, func() { err = seedStack(ctx, s.store, telemetry, tr, clock, cfg.seedDir) })
		if err != nil {
			s.kill()
			return nil, 0, fmt.Errorf("seed: %w", err)
		}
	}
	ready.Store(true)
	return s, time.Since(begin), nil
}

// serveMux is mirabeld's route table without pprof.
func serveMux(api, schedAPI, kpiAPI http.Handler, reg *obs.Registry, ready *atomic.Bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.Handle("/aggregates", schedAPI)
	mux.Handle("/schedule", schedAPI)
	mux.Handle("/schedule/", schedAPI)
	mux.Handle("/kpi", kpiAPI)
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "ok\n") })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "seeding\n")
			return
		}
		_, _ = io.WriteString(w, "ready\n")
	})
	return mux
}

// seedStack is mirabeld's -seed-dir path (cmd/mirabeld seedStore without
// fault injection): read every CSV, extract peak offers through the
// pipeline with the same per-file seeds, and bulk-submit them through the
// resilient sink.
func seedStack(ctx context.Context, store *market.Store, telemetry *pipeline.Telemetry, tr *tracer, clock func() time.Time, dir string) error {
	all, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	var files []string
	for _, path := range all {
		if !strings.HasSuffix(path, ".modified.csv") {
			files = append(files, path)
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return fmt.Errorf("no *.csv files under %s", dir)
	}
	batch := make([]pipeline.Job, 0, len(files))
	seedOf := make(map[string]int64, len(files))
	for i, path := range files {
		series, err := tr.readCSV(path)
		if err != nil {
			return err
		}
		id := strings.TrimSuffix(filepath.Base(path), ".csv")
		batch = append(batch, pipeline.Job{ID: id, Series: series})
		seedOf[id] = int64(i + 1)
	}
	storeSink := &pipeline.StoreSink{Store: store}
	sink := pipeline.NewResilientSink(tr.traceSink(storeSink), pipeline.DefaultRetryPolicy(), telemetry)
	cfg := pipeline.Config{
		Workers: seedJobs, Telemetry: telemetry, Clock: clock,
		NewExtractor: func(j pipeline.Job) core.Extractor {
			params := core.DefaultParams()
			params.FlexPercentage = seedFlexPct
			params.Seed = seedOf[j.ID]
			params.ConsumerID = j.ID
			return tr.traceExtractor(&core.PeakExtractor{Params: params}, spanHousehold)
		},
	}
	var stats pipeline.Stats
	tr.timed(spanPipeline, -1, func() { stats, err = pipeline.RunJobs(ctx, cfg, batch, sink) })
	if err != nil {
		return err
	}
	if _, rejected := storeSink.Counts(); rejected > 0 {
		return fmt.Errorf("%d offers rejected by the store (first: %v)", rejected, storeSink.FirstErr())
	}
	if stats.Errors > 0 || stats.DeadLettered > 0 {
		return fmt.Errorf("%d extraction errors, %d offers dead-lettered", stats.Errors, stats.DeadLettered)
	}
	return nil
}

func (s *stack) addr() string { return s.listen }

// peakRSSMB is this process's peak resident set: the stack shares it with
// the load generator.
func (s *stack) peakRSSMB() (float64, error) { return vmHWM(0) }

// kill stops the stack as a crash would leave its data directory. The
// writers stop first (the periodic scheduler and the server, whose
// handlers have returned once Shutdown does), so nothing moves while the
// directory is copied as it stands. The stack then closes (its journal's
// final snapshot lands in the original) and the copy replaces the
// original, so a restart recovers only what was written before the kill.
func (s *stack) kill() {
	if s.closed {
		return
	}
	s.closed = true
	s.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // a handler outlived the timeout; close its connection
	}
	cancel()
	s.loops.Wait()
	var crashed string
	if s.cfg.dataDir != "" {
		crashed = s.cfg.dataDir + ".crash"
		if err := copyDir(s.cfg.dataDir, crashed); err != nil {
			crashed = ""
			fmt.Fprintf(os.Stderr, "flexbench: crash copy of %s: %v\n", s.cfg.dataDir, err)
		}
	}
	_ = s.sched.Close() // the ledger's close error cannot change the crash image taken above
	s.kpi.Close()
	s.closeStores()
	if crashed != "" {
		if err := os.RemoveAll(s.cfg.dataDir); err == nil {
			err = os.Rename(crashed, s.cfg.dataDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flexbench: restore crash copy: %v\n", err)
			}
		}
	}
}

// closeStores closes the journal, when there is one.
func (s *stack) closeStores() {
	if s.journal != nil {
		_ = s.journal.Close() // the final snapshot goes to a directory kill discards
	}
}

// copyDir copies the regular files under src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
