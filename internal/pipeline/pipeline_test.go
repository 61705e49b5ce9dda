package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/timeseries"
)

var testStart = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// syntheticSeries builds a peaky household series: base load plus an
// evening peak, deterministic per seed-ish phase shift.
func syntheticSeries(days int, res time.Duration, phase float64) *timeseries.Series {
	perDay := int((24 * time.Hour) / res)
	vals := make([]float64, days*perDay)
	for i := range vals {
		frac := float64(i%perDay) / float64(perDay) * 24
		vals[i] = 0.2 + 0.6*math.Exp(-(frac-19-phase)*(frac-19-phase)/6)
	}
	return timeseries.MustNew(testStart, res, vals)
}

// batchJobs builds n jobs over distinct synthetic series.
func batchJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:     fmt.Sprintf("house-%02d", i),
			Series: syntheticSeries(2, 15*time.Minute, float64(i%5)/2),
		}
	}
	return jobs
}

// peakFactory builds a fresh peak extractor per job with a per-job seed.
func peakFactory(j Job) core.Extractor {
	p := core.DefaultParams()
	p.ConsumerID = j.ID
	p.Seed = int64(len(j.ID)) + int64(j.ID[len(j.ID)-1])
	return &core.PeakExtractor{Params: p}
}

// stubExtractor lets tests control extraction behaviour.
type stubExtractor struct {
	fn func(*timeseries.Series) (*core.Result, error)
}

func (s *stubExtractor) Name() string { return "stub" }
func (s *stubExtractor) Extract(in *timeseries.Series) (*core.Result, error) {
	return s.fn(in)
}

func TestRunJobsCollects(t *testing.T) {
	jobs := batchJobs(10)
	sink := &CollectSink{}
	stats, err := RunJobs(context.Background(), Config{Workers: 4, NewExtractor: peakFactory}, jobs, sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SeriesProcessed != 10 || stats.Errors != 0 {
		t.Fatalf("stats = %v", stats)
	}
	outs := sink.Outputs()
	if len(outs) != 10 {
		t.Fatalf("collected %d outputs", len(outs))
	}
	offers := sink.Offers()
	if len(offers) == 0 || stats.OffersEmitted != len(offers) {
		t.Fatalf("offers emitted %d, collected %d", stats.OffersEmitted, len(offers))
	}
	// Offer IDs are qualified with the job ID and unique across the batch.
	seen := make(map[string]bool)
	for _, f := range offers {
		if !strings.Contains(f.ID, "/") || !strings.HasPrefix(f.ID, "house-") {
			t.Fatalf("offer ID %q not qualified", f.ID)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate offer ID %q across batch", f.ID)
		}
		seen[f.ID] = true
	}
	if stats.Busy <= 0 || stats.Wall <= 0 {
		t.Fatalf("timings not recorded: %v", stats)
	}
}

// TestWorkersRunConcurrently proves the pool genuinely overlaps jobs: four
// blocking jobs only finish if all four run at once.
func TestWorkersRunConcurrently(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	cfg := Config{
		Workers: n,
		NewExtractor: func(Job) core.Extractor {
			return &stubExtractor{fn: func(in *timeseries.Series) (*core.Result, error) {
				barrier.Done()
				barrier.Wait() // deadlocks unless n jobs are in flight together
				return &core.Result{Modified: in.Clone()}, nil
			}}
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunJobs(context.Background(), cfg, batchJobs(n), Discard)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("workers did not run concurrently: barrier never released")
	}
}

func TestCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var extracted atomic.Int32
	cfg := Config{
		Workers: 1,
		NewExtractor: func(Job) core.Extractor {
			return &stubExtractor{fn: func(in *timeseries.Series) (*core.Result, error) {
				extracted.Add(1)
				select {
				case started <- struct{}{}:
				default:
				}
				<-release
				return &core.Result{Modified: in.Clone()}, nil
			}}
		},
	}
	done := make(chan struct {
		stats Stats
		err   error
	}, 1)
	go func() {
		stats, err := RunJobs(ctx, cfg, batchJobs(10), Discard)
		done <- struct {
			stats Stats
			err   error
		}{stats, err}
	}()
	<-started
	cancel()
	close(release) // let the in-flight job finish
	res := <-done
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	// The in-flight job completed; nothing further was dispatched.
	if got := extracted.Load(); got >= 10 {
		t.Fatalf("dispatched %d jobs after cancellation", got)
	}
	if res.stats.SeriesProcessed >= 10 {
		t.Fatalf("processed %d series despite cancellation", res.stats.SeriesProcessed)
	}
}

func TestPanicRecovery(t *testing.T) {
	jobs := batchJobs(6)
	cfg := Config{
		Workers: 2,
		NewExtractor: func(j Job) core.Extractor {
			if j.ID == "house-03" {
				return &stubExtractor{fn: func(*timeseries.Series) (*core.Result, error) {
					panic("malformed series blew up the extractor")
				}}
			}
			return peakFactory(j)
		},
	}
	sink := &CollectSink{}
	stats, err := RunJobs(context.Background(), cfg, jobs, sink)
	if err != nil {
		t.Fatalf("batch aborted: %v", err)
	}
	if stats.Panics != 1 || stats.Errors != 1 {
		t.Fatalf("panics=%d errors=%d, want 1/1", stats.Panics, stats.Errors)
	}
	if stats.SeriesProcessed != 5 {
		t.Fatalf("processed %d, want 5", stats.SeriesProcessed)
	}
	if len(stats.JobErrors) != 1 || stats.JobErrors[0].JobID != "house-03" ||
		!errors.Is(stats.JobErrors[0], ErrWorkerPanic) {
		t.Fatalf("job errors = %v", stats.JobErrors)
	}
	if len(sink.Outputs()) != 5 {
		t.Fatalf("sink saw %d outputs, want 5", len(sink.Outputs()))
	}
}

func TestSinkErrorAbortsBatch(t *testing.T) {
	sinkErr := errors.New("downstream full")
	var puts atomic.Int32
	sink := SinkFunc(func(context.Context, Output) error {
		if puts.Add(1) == 1 {
			return sinkErr
		}
		return nil
	})
	stats, err := RunJobs(context.Background(), Config{Workers: 2, NewExtractor: peakFactory}, batchJobs(50), sink)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want wrapped %v", err, sinkErr)
	}
	if stats.SeriesProcessed >= 50 {
		t.Fatalf("batch ran to completion (%d) despite sink error", stats.SeriesProcessed)
	}
}

func TestJobErrorsDoNotAbort(t *testing.T) {
	jobs := batchJobs(4)
	jobs[2].Series = nil // extractor rejects nil input with an error
	stats, err := RunJobs(context.Background(), Config{Workers: 2, NewExtractor: peakFactory}, jobs, Discard)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 1 || stats.Panics != 0 || stats.SeriesProcessed != 3 {
		t.Fatalf("stats = %v", stats)
	}
	if len(stats.JobErrors) != 1 || stats.JobErrors[0].JobID != "house-02" {
		t.Fatalf("job errors = %v", stats.JobErrors)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunJobs(context.Background(), Config{}, batchJobs(1), Discard); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil NewExtractor: err = %v", err)
	}
	if _, err := RunJobs(context.Background(), Config{NewExtractor: peakFactory}, batchJobs(1), nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil sink: err = %v", err)
	}
	if _, err := Run(context.Background(), Config{NewExtractor: peakFactory}, nil, Discard); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil jobs: err = %v", err)
	}
}

func TestMultiTariffJobNeedsReference(t *testing.T) {
	factory := func(Job) core.Extractor {
		return &core.MultiTariffExtractor{Params: core.DefaultParams()}
	}
	stats, err := RunJobs(context.Background(), Config{Workers: 2, NewExtractor: factory}, batchJobs(1), Discard)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 1 || len(stats.JobErrors) != 1 {
		t.Fatalf("stats = %v", stats)
	}
	if !strings.Contains(stats.JobErrors[0].Error(), "Reference") {
		t.Fatalf("error %v does not mention the missing reference", stats.JobErrors[0])
	}
}

func TestStoreSinkBulkSubmits(t *testing.T) {
	// A fixed logical clock before the offers' acceptance deadlines, as a
	// replay deployment would configure.
	clock := testStart.Add(-48 * time.Hour)
	store := market.NewStore(func() time.Time { return clock })
	sink := &StoreSink{Store: store}
	stats, err := RunJobs(context.Background(), Config{Workers: 4, NewExtractor: peakFactory}, batchJobs(12), sink)
	if err != nil {
		t.Fatal(err)
	}
	submitted, rejected := sink.Counts()
	if rejected != 0 {
		t.Fatalf("%d offers rejected: %v", rejected, sink.FirstErr())
	}
	if submitted != stats.OffersEmitted || submitted == 0 {
		t.Fatalf("submitted %d, emitted %d", submitted, stats.OffersEmitted)
	}
	if counts := store.Stats(); counts.Offered != submitted {
		t.Fatalf("store holds %d offered, want %d", counts.Offered, submitted)
	}
}

func TestStoreSinkCountsRejections(t *testing.T) {
	clock := testStart.Add(-48 * time.Hour)
	store := market.NewStore(func() time.Time { return clock })
	sink := &StoreSink{Store: store}
	cfg := Config{Workers: 2, NewExtractor: peakFactory}
	// Two identical jobs under one job ID: the second job's qualified offer
	// IDs all collide with the first's.
	jobs := batchJobs(2)
	jobs[1].ID = jobs[0].ID
	jobs[1].Series = jobs[0].Series.Clone()
	if _, err := RunJobs(context.Background(), cfg, jobs, sink); err != nil {
		t.Fatal(err)
	}
	submitted, rejected := sink.Counts()
	if rejected == 0 || submitted == 0 {
		t.Fatalf("submitted %d rejected %d, want both > 0", submitted, rejected)
	}
	if !errors.Is(sink.FirstErr(), market.ErrDuplicate) {
		t.Fatalf("first error = %v, want duplicate", sink.FirstErr())
	}
}
