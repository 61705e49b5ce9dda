// Package pipeline runs flexibility extraction over whole batches of
// household series concurrently — the fan-out layer between the per-series
// extractors of internal/core and portfolio-scale workloads (MIRABEL-style
// deployments ingest fleets of households, not single meters).
//
// A batch is a stream of Jobs, one per household series. Run fans the jobs
// out over a bounded pool of workers; each worker builds the configured
// extractor for its job, runs it, and streams the resulting flex-offers
// into a shared Sink (collect into memory or bulk-submit into a
// market.Store). The pool honours context cancellation, recovers
// per-worker panics into per-job errors, and keeps per-stage counters
// (series processed, offers emitted, errors, panics, wall and busy time).
//
// # Ownership model
//
// timeseries.Series is safe for concurrent reads but not for unsynchronised
// mutation, and the extractors subtract extracted energy in place
// (subtractProportional in internal/core) — always on a private Clone of
// the input, never on the input itself. The pipeline builds on two rules:
//
//  1. A Job's Series (and Reference) are owned by the pipeline from the
//     moment the Job is sent until Run returns: callers must not mutate
//     them in the meantime. Exactly one worker touches a given job, and it
//     only ever reads the input, so sharing one immutable Series across
//     several jobs is allowed.
//  2. Everything a worker emits is freshly allocated by the extractor
//     (offers, the modified series), so the Sink receives exclusive
//     ownership of each Output and needs no further synchronisation to
//     mutate it — only the Sink itself must be safe for concurrent Put
//     calls, since every worker streams into it directly.
//
// Extraction is deterministic per job (the extractors draw all randomness
// from Params.Seed), so a batch produces identical offers — up to the order
// in which the sink observes them — at any worker count.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/timeseries"
)

// Common errors.
var (
	// ErrConfig reports an unusable pipeline configuration.
	ErrConfig = errors.New("pipeline: invalid config")
	// ErrWorkerPanic wraps a panic recovered inside a worker; the panicking
	// job fails, the worker and the rest of the batch keep running.
	ErrWorkerPanic = errors.New("pipeline: worker panic")
)

// Job is one unit of batch work: a single household's consumption series.
type Job struct {
	// ID identifies the series within the batch (e.g. the CSV base name or
	// metering-point ID). When non-empty it prefixes every extracted offer
	// ID ("<job>/<offer>") so offers from different households never
	// collide in a shared store. IDs should be unique per batch.
	ID string
	// Series is the consumption series to extract from. The pipeline owns
	// it until Run returns (see the package ownership model).
	Series *timeseries.Series
	// Reference optionally carries the one-tariff reference series required
	// by the multi-tariff approach; jobs whose extractor is a
	// *core.MultiTariffExtractor fail without it.
	Reference *timeseries.Series
}

// Output is one finished extraction, streamed to the Sink by the worker
// that produced it. The receiver owns Result exclusively.
type Output struct {
	// JobID echoes the job's ID.
	JobID string
	// Result is the extractor's output (offers + modified series).
	Result *core.Result
	// Elapsed is how long the extraction took on its worker.
	Elapsed time.Duration
}

// JobError records the failure of a single job. Job failures do not abort
// the batch; they are counted and reported in Stats.
type JobError struct {
	JobID string
	Err   error
}

// Error implements error.
func (e JobError) Error() string { return fmt.Sprintf("job %s: %v", e.JobID, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e JobError) Unwrap() error { return e.Err }

// Config parameterises a batch run.
type Config struct {
	// Workers bounds the worker pool; 0 or negative means GOMAXPROCS.
	Workers int
	// NewExtractor builds the extractor for one job. It is called once per
	// job from the worker goroutine that owns the job, so it may return a
	// fresh extractor (per-series consumer IDs and seeds) or a shared one —
	// the core extractors keep all per-run state local to Extract, so
	// sharing is safe.
	NewExtractor func(Job) core.Extractor
	// Telemetry, when set, feeds the long-lived pipeline metrics (jobs
	// started/succeeded/failed, per-stage durations, worker saturation)
	// registered with NewTelemetry. Nil disables instrumentation.
	Telemetry *Telemetry
	// Clock supplies the pipeline's notion of time for the wall/busy/stage
	// timings in Stats and Telemetry; nil means the live clock. Replays
	// (mirabeld -clock) inject their pinned clock here so a replayed batch
	// reports deterministic timings instead of mixing logical offer time
	// with live wall time.
	Clock func() time.Time
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// now reads the configured clock.
func (c Config) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	//lint:ignore clockcheck the documented live default when no Clock is injected; every other wall-clock read in the pipeline goes through this accessor
	return time.Now()
}

// Run drains the jobs channel through a pool of workers, streaming each
// finished extraction into sink, until the channel is closed or the context
// is cancelled. In-flight extractions are not interrupted by cancellation;
// no new jobs are started after it.
//
// Per-job extraction failures (including recovered worker panics) do not
// abort the batch: they are counted in Stats and listed in Stats.JobErrors.
// A Sink error does abort the batch and is returned, as is ctx's error when
// the context is cancelled first.
func Run(ctx context.Context, cfg Config, jobs <-chan Job, sink Sink) (Stats, error) {
	if cfg.NewExtractor == nil {
		return Stats{}, fmt.Errorf("%w: NewExtractor is nil", ErrConfig)
	}
	if sink == nil {
		return Stats{}, fmt.Errorf("%w: nil sink", ErrConfig)
	}
	if jobs == nil {
		return Stats{}, fmt.Errorf("%w: nil jobs channel", ErrConfig)
	}
	workers := cfg.workers()
	cfg.Telemetry.setWorkers(workers)
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	acc := &accumulator{}
	start := cfg.now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check cancellation with priority: a closed Done channel
				// and a ready job race inside a single select, so without
				// this a cancelled pool could keep dispatching.
				select {
				case <-ctx.Done():
					return
				default:
				}
				select {
				case <-ctx.Done():
					return
				case job, ok := <-jobs:
					if !ok {
						return
					}
					runJob(ctx, cfg, job, sink, acc, cancel)
				}
			}
		}()
	}
	wg.Wait()

	stats := acc.snapshot()
	stats.Workers = workers
	stats.Wall = cfg.now().Sub(start)
	// A resilient submit path carries its own loss accounting; fold it
	// into the batch summary so callers see retries and dead-lettered
	// offers next to the extraction counters.
	if rs, ok := sink.(interface{ retryStats() (int, int) }); ok {
		stats.SinkRetries, stats.DeadLettered = rs.retryStats()
	}
	if ctx.Err() != nil {
		return stats, context.Cause(ctx)
	}
	return stats, nil
}

// RunJobs is Run over an in-memory batch: it feeds the slice through an
// internal channel and blocks until the whole batch is finished or aborted.
func RunJobs(ctx context.Context, cfg Config, jobs []Job, sink Sink) (Stats, error) {
	// The feeder must observe the abort of the worker pool (sink error),
	// not only of the parent context, or it would block forever on an
	// undrained channel; cancelling this derived context when Run returns
	// releases it either way.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan Job)
	go func() {
		defer close(ch)
		for _, j := range jobs {
			select {
			case <-ctx.Done():
				return
			default:
			}
			select {
			case ch <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	return Run(ctx, cfg, ch, sink)
}

// runJob executes one job on the calling worker: extract, qualify offer
// IDs, account, and stream the output into the sink.
func runJob(ctx context.Context, cfg Config, job Job, sink Sink, acc *accumulator, cancel context.CancelCauseFunc) {
	cfg.Telemetry.jobStarted()
	begin := cfg.now()
	res, err := extractOne(cfg, job)
	elapsed := cfg.now().Sub(begin)
	if err != nil {
		panicked := errors.Is(err, ErrWorkerPanic)
		cfg.Telemetry.jobDone(0, elapsed, err, panicked)
		acc.fail(JobError{JobID: job.ID, Err: err}, elapsed, panicked)
		return
	}
	if job.ID != "" {
		for _, f := range res.Offers {
			f.ID = job.ID + "/" + f.ID
		}
	}
	cfg.Telemetry.jobDone(len(res.Offers), elapsed, nil, false)
	acc.done(len(res.Offers), elapsed)
	sinkBegin := cfg.now()
	err = sink.Put(ctx, Output{JobID: job.ID, Result: res, Elapsed: elapsed})
	cfg.Telemetry.sinkPut(cfg.now().Sub(sinkBegin))
	if err != nil {
		cancel(fmt.Errorf("pipeline: sink: %w", err))
	}
}

// extractOne builds the job's extractor and runs it, converting panics into
// errors so a malformed series can never take down a worker.
func extractOne(cfg Config, job Job) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrWorkerPanic, r)
		}
	}()
	ex := cfg.NewExtractor(job)
	if ex == nil {
		return nil, fmt.Errorf("%w: NewExtractor returned nil for job %s", ErrConfig, job.ID)
	}
	if mt, ok := ex.(*core.MultiTariffExtractor); ok {
		if job.Reference == nil {
			return nil, fmt.Errorf("multi-tariff extraction needs Job.Reference (one-tariff series)")
		}
		return mt.ExtractPair(job.Reference, job.Series)
	}
	return ex.Extract(job.Series)
}
