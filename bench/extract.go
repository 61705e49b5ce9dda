package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/timeseries"
)

// The extract workload's inputs.
const (
	extractHouseholdWeeks = 400 // household-weeks at 15 min: peak, basic and random in rotation
	extractAppliance      = 20  // households at 1 min: frequency and schedule in rotation
	extractApplianceDays  = 14  // days per 1-min series
	// extractNominal sizes the batch: about the series per second two
	// workers reach on the 2-core box, so it lasts about the measured time.
	extractNominal = 12000
)

var (
	householdApproaches = []string{"peak", "basic", "random"}
	applianceApproaches = []string{"frequency", "schedule"}
	extractStart        = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
)

// extractJob is one input series and the approach that extracts it.
type extractJob struct {
	name     string
	series   *timeseries.Series
	approach string
}

// extractInputs are the workload's series, read from their CSVs, plus the
// appliance catalogue the appliance-level approaches need.
type extractInputs struct {
	jobs     []extractJob
	registry *appliance.Registry
}

// loadExtract is the timed set-up: read every series and build the
// appliance registry the extractors share. The slow 1-min series are
// spread evenly among the household-weeks, so arrivals mix the two kinds
// instead of bunching every slow series into one burst.
func loadExtract(tr *tracer, houseDir, applDir string) (*extractInputs, error) {
	read := func(dir string, approaches []string) ([]extractJob, error) {
		files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		jobs := make([]extractJob, 0, len(files))
		for i, path := range files {
			s, err := tr.readCSV(path)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, extractJob{
				name: filepath.Base(dir) + "/" + filepath.Base(path), series: s,
				approach: approaches[i%len(approaches)],
			})
		}
		return jobs, nil
	}
	house, err := read(houseDir, householdApproaches)
	if err != nil {
		return nil, err
	}
	appl, err := read(applDir, applianceApproaches)
	if err != nil {
		return nil, err
	}
	if len(house) == 0 || len(appl) == 0 {
		return nil, fmt.Errorf("no input series under %s or %s", houseDir, applDir)
	}
	in := &extractInputs{registry: appliance.Default()}
	every, next := max(1, len(house)/len(appl)), 0
	for i, j := range house {
		in.jobs = append(in.jobs, j)
		if (i+1)%every == 0 && next < len(appl) {
			in.jobs = append(in.jobs, appl[next])
			next++
		}
	}
	in.jobs = append(in.jobs, appl[next:]...)
	return in, nil
}

// extractor builds the extractor for input base, seeded by its position
// so every pass extracts the same offers from it.
func (in *extractInputs) extractor(base int, tr *tracer) core.Extractor {
	job := in.jobs[base]
	params := core.DefaultParams()
	params.Seed = int64(base + 1)
	params.ConsumerID = job.name
	switch job.approach {
	case "peak":
		return tr.traceExtractor(&core.PeakExtractor{Params: params}, spanHousehold)
	case "basic":
		return tr.traceExtractor(&core.BasicExtractor{Params: params}, spanHousehold)
	case "random":
		return tr.traceExtractor(&core.RandomExtractor{Params: params}, spanHousehold)
	case "frequency":
		return tr.traceExtractor(&core.FrequencyExtractor{Params: params, Registry: in.registry}, spanAppliance)
	default:
		return tr.traceExtractor(&core.ScheduleExtractor{Params: params, Registry: in.registry, MinSupport: 0.2}, spanAppliance)
	}
}

// outcome is what extracting one series produced: its offer count, their
// summed average energy in offer order, and whether every offer validates.
type outcome struct {
	offers int
	kwh    float64
	valid  bool
}

func outcomeOf(res *core.Result) outcome {
	o := outcome{offers: len(res.Offers), valid: true}
	for _, f := range res.Offers {
		o.kwh += f.TotalAvgEnergy()
		o.valid = o.valid && f.Validate() == nil
	}
	return o
}

// reference extracts every input once on one worker: the outcome every
// later pass, on any worker count and traced or not, must reproduce.
func (in *extractInputs) reference(ctx context.Context) ([]outcome, error) {
	ref := make([]outcome, len(in.jobs))
	sink := pipeline.SinkFunc(func(_ context.Context, out pipeline.Output) error {
		base, _ := strconv.Atoi(out.JobID)
		ref[base] = outcomeOf(out.Result)
		return nil
	})
	jobs := make([]pipeline.Job, len(in.jobs))
	for i, j := range in.jobs {
		jobs[i] = pipeline.Job{ID: strconv.Itoa(i), Series: j.series}
	}
	stats, err := pipeline.RunJobs(ctx, pipeline.Config{
		Workers:      1,
		NewExtractor: func(j pipeline.Job) core.Extractor { base, _ := strconv.Atoi(j.ID); return in.extractor(base, nil) },
	}, jobs, sink)
	if err != nil {
		return nil, err
	}
	if stats.Errors > 0 {
		return nil, fmt.Errorf("%d of %d reference extractions failed: %v", stats.Errors, len(jobs), stats.JobErrors[0])
	}
	return ref, nil
}

// feed runs ops series through a two-worker pipeline.Run, a batch loop in
// which each worker takes the next series as soon as it is free, and
// checks every output against ref. A series is due when its worker takes
// it, so its latency is its extraction and hand-off to the sink. It
// returns the samples and how many outputs differed from the reference.
func (in *extractInputs) feed(ctx context.Context, tr *tracer, epoch time.Time, ops int, ref []outcome) (phaseResult, int, error) {
	// The sample buffer is allocated before the clock starts and the jobs
	// are made as the workers ask for them, so the benchmark's bookkeeping
	// adds little to the heap the extraction shares.
	samples := make([]sample, ops)
	var mismatches atomic.Int64
	start := time.Now()
	offset := int64(start.Sub(epoch))
	now := func() int64 { return offset + int64(time.Since(start)) }
	// A series' extractor is built and its output put by the worker that
	// took it, so each sample is written by one goroutine.
	cfg := pipeline.Config{
		Workers: seedJobs,
		NewExtractor: func(j pipeline.Job) core.Extractor {
			seq, _ := strconv.Atoi(j.ID)
			at := now()
			samples[seq] = sample{req: int64(seq), kind: opExtract, due: at, sent: at}
			return in.extractor(seq%len(in.jobs), tr)
		},
	}
	sink := pipeline.SinkFunc(func(_ context.Context, out pipeline.Output) error {
		seq, _ := strconv.Atoi(out.JobID)
		if outcomeOf(out.Result) != ref[seq%len(in.jobs)] {
			mismatches.Add(1)
		}
		samples[seq].done = now()
		return nil
	})
	jobs := make(chan pipeline.Job)
	feedCtx, stopFeed := context.WithCancel(ctx)
	defer stopFeed()
	go func() {
		defer close(jobs)
		for i := 0; i < ops; i++ {
			select {
			case jobs <- pipeline.Job{ID: strconv.Itoa(i), Series: in.jobs[i%len(in.jobs)].series}:
			case <-feedCtx.Done(): // the pool stopped on a sink error
				return
			}
		}
	}()
	var stats pipeline.Stats
	var err error
	tr.timed(spanPipeline, -1, func() { stats, err = pipeline.Run(ctx, cfg, jobs, tr.traceSink(sink)) })
	if err != nil {
		return phaseResult{}, 0, err
	}
	res := phaseResult{samples: samples, wall: time.Since(start)}
	for i := range res.samples {
		res.samples[i].failed = res.samples[i].done == 0
	}
	return res, int(mismatches.Load()) + stats.Errors, nil
}

// runExtract is the extract workload.
func runExtract(e *env) (*result, error) {
	res := newResult("extract", e.mode())
	t := e.timing()
	weeks, appl, applDays := extractHouseholdWeeks, extractAppliance, extractApplianceDays
	if e.opts.quick {
		weeks, appl, applDays = 30, 2, 7
	}
	houseDir, applDir := filepath.Join(e.work, "household"), filepath.Join(e.work, "appliance")
	e.progress("extract: generating %d household-weeks at 15 min and %d × %d days at 1 min", weeks, appl, applDays)
	if err := writeHouseholds(houseDir, weeks, e.opts.seed, extractStart, 7, 15*time.Minute); err != nil {
		return nil, err
	}
	if err := writeHouseholds(applDir, appl, e.opts.seed+1, extractStart, applDays, time.Minute); err != nil {
		return nil, err
	}
	res.Meta["seed"] = e.opts.seed
	res.Meta["inputs"] = fmt.Sprintf("%d household-weeks at 15 min (%v), %d households × %d days at 1 min (%v)",
		weeks, householdApproaches, appl, applDays, applianceApproaches)
	ops := int(extractNominal * (t.open + t.closed).Seconds())
	res.Meta["phases"] = fmt.Sprintf("warm-up %v, then a batch of %d series on %d workers", t.warmup, ops, seedJobs)

	var tr *tracer
	if e.opts.trace {
		tr = newTracer()
		tr.on.Store(true)
	}
	var in *extractInputs
	var setups []float64
	for spent := time.Duration(0); t.setups.more(len(setups), spent); {
		in = nil
		runtime.GC() // every set-up starts from the same heap, not the last one's garbage
		begin := time.Now()
		var err error
		tr.timed(spanSetup, -1, func() { in, err = loadExtract(tr, houseDir, applDir) })
		if err != nil {
			return nil, err
		}
		dur := time.Since(begin)
		spent += dur
		setups = append(setups, dur.Seconds())
	}
	ctx := context.Background()
	ref, err := in.reference(ctx)
	if err != nil {
		return nil, err
	}
	invalid, offers := 0, 0
	for _, o := range ref {
		offers += o.offers
		if !o.valid {
			invalid++
		}
	}
	res.Meta["offers_per_pass"] = offers
	res.check("every reference offer validates", invalid == 0 && offers > 0, "%d offers from %d series, %d series with invalid offers", offers, len(ref), invalid)

	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	tr.setOn(false)
	mismatches := 0
	pass := func(ops int) (phaseResult, error) {
		r, bad, err := in.feed(ctx, tr, epoch, ops, ref)
		mismatches += bad
		return r, err
	}
	e.progress("extract: warm-up")
	warm, err := pass(int(extractNominal * t.warmup.Seconds()))
	if err != nil {
		return nil, err
	}
	var untraced phaseResult
	if tr != nil {
		e.progress("extract: untraced pass")
		if untraced, err = pass(ops / 2); err != nil {
			return nil, err
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	tr.setOn(true)
	e.progress("extract: measuring")
	batch, err := pass(ops)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	tr.setOn(false)
	rss, err := vmHWM(0)
	if err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = counts(untraced, warm, batch)
	if tr == nil {
		res.metric("setup_s", median(setups), "s", len(setups))
		res.metric("peak_rss_mb", rss, "MB", 1)
		capOps, capN := capacity(batch)
		lat := latencies(batch.samples, nil)
		res.extra(capacityMetric, capOps, "1/s", capN)
		res.extra(latencyMetric, quantile(sortedCopy(lat), 0.5), "ms", len(lat))
	} else {
		v, n := map[string]float64{}, map[string]int{}
		extractionLayers(tr.snapshot(), v, n)
		runtimeLayers(mem0, mem1, batch.wall, len(batch.samples), v, n)
		res.Metrics = layerMetrics(v, n)
		overhead(res, untraced, untraced, batch, batch)
		path := filepath.Join(e.opts.traceDir, "trace-extract.json")
		if err := tr.writeFile(path, "extract", e.opts.seed, clientSpans(batch)); err != nil {
			return nil, err
		}
		res.Meta["trace_file"] = path
	}
	tails(res, batch)
	name := "every pass reproduces the Workers: 1 reference"
	if tr != nil {
		name = "traced extraction reproduces the Workers: 1 reference"
	}
	res.check(name, mismatches == 0, "%d of %d outputs differ in offer count, energy or validity", mismatches, res.Attempted)
	return res, nil
}
