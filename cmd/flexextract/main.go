// Command flexextract runs a flexibility extraction approach over a
// consumption CSV and writes the resulting flex-offers (JSON) and the
// modified series (CSV) — the Fig. 2 pipeline as a tool.
//
// Single-series usage:
//
//	flexextract -in house.csv -approach peak -flexpct 0.05 -offers offers.json -modified modified.csv
//	flexextract -in multi.csv -ref flat.csv -approach multitariff ...
//	flexextract -in house_1m.csv -approach frequency ...
//
// Batch usage — extract a whole directory of household CSVs over a
// concurrent worker pool (internal/pipeline):
//
//	flexextract -indir data/ -outdir out/ -approach peak -jobs 8
//
// Each data/<name>.csv becomes out/<name>.offers.json and
// out/<name>.modified.csv; offer IDs are qualified with the series name
// ("<name>/peak-0001") so a downstream store never sees collisions. Every
// series gets its own deterministic seed (-seed plus the batch index), so
// results do not depend on -jobs.
//
// -stats-json writes a machine-readable run summary rendered from the
// same internal/obs metric registry mirabeld's /metrics exposes (pipeline
// job counters, per-stage latency histograms, worker saturation); "-"
// writes it to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tariff"
	"repro/internal/timeseries"
)

func main() {
	in := flag.String("in", "", "input consumption CSV (single-series mode)")
	indir := flag.String("indir", "", "input directory of consumption CSVs (batch mode)")
	outdir := flag.String("outdir", "", "batch output directory (default: -indir)")
	jobs := flag.Int("jobs", 0, "batch worker count (0 = GOMAXPROCS)")
	ref := flag.String("ref", "", "one-tariff reference CSV (multitariff approach only)")
	approach := flag.String("approach", "peak", "basic | peak | random | multitariff | frequency | schedule")
	flexPct := flag.Float64("flexpct", 0.05, "flexible share of consumption (consumption-level approaches)")
	seed := flag.Int64("seed", 1, "randomisation seed (batch mode: per-series base seed)")
	consumer := flag.String("consumer", "", "consumer ID stamped on offers (single-series mode)")
	offersOut := flag.String("offers", "offers.json", "output flex-offers JSON (single-series mode)")
	modifiedOut := flag.String("modified", "modified.csv", "output modified series CSV (single-series mode)")
	lowStart := flag.Int("low-start", 22, "low-tariff window start hour (multitariff)")
	lowEnd := flag.Int("low-end", 6, "low-tariff window end hour (multitariff)")
	resample := flag.Duration("resample", 0, "resample the input to this resolution before extraction (0 = keep)")
	statsJSON := flag.String("stats-json", "", "write a JSON run summary (obs registry) to this file (\"-\" = stdout)")
	flag.Parse()

	var err error
	switch {
	case *indir != "":
		err = runBatch(*indir, *outdir, *ref, *approach, *flexPct, *seed, *jobs, *lowStart, *lowEnd, *resample, *statsJSON)
	case *in != "":
		err = run(*in, *ref, *approach, *flexPct, *seed, *consumer, *offersOut, *modifiedOut, *lowStart, *lowEnd, *resample, *statsJSON)
	default:
		fmt.Fprintln(os.Stderr, "flexextract: -in (single series) or -indir (batch) is required")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexextract: %v\n", err)
		os.Exit(1)
	}
}

func readSeries(path string) (*timeseries.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return timeseries.ReadCSV(f)
}

// buildExtractor maps an approach name to its extractor: the approaches
// that need a tariff or the appliance registry here, the rest through
// core.Approach.
func buildExtractor(approach string, params core.Params, tou tariff.TimeOfUse) (core.Extractor, error) {
	switch approach {
	case "multitariff":
		return &core.MultiTariffExtractor{Params: params, Tariff: tou}, nil
	case "frequency":
		return &core.FrequencyExtractor{Params: params, Registry: appliance.Default()}, nil
	case "schedule":
		return &core.ScheduleExtractor{Params: params, Registry: appliance.Default()}, nil
	}
	newExtractor, err := core.Approach(approach)
	if err != nil {
		return nil, err
	}
	return newExtractor(params), nil
}

// writeStats renders the registry as JSON to path ("-" = stdout, "" = off).
func writeStats(reg *obs.Registry, path string) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := reg.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", path, werr)
	}
	return nil
}

func run(in, ref, approach string, flexPct float64, seed int64, consumer, offersOut, modifiedOut string, lowStart, lowEnd int, resample time.Duration, statsJSON string) error {
	input, err := readSeries(in)
	if err != nil {
		return fmt.Errorf("read %s: %w", in, err)
	}
	if resample > 0 {
		input, err = input.ResampleTo(resample)
		if err != nil {
			return fmt.Errorf("resample: %w", err)
		}
	}

	params := core.DefaultParams()
	params.FlexPercentage = flexPct
	params.Seed = seed
	params.ConsumerID = consumer

	tou := tariff.TimeOfUse{HighPrice: 0.40, LowPrice: 0.15, LowStartHour: lowStart, LowEndHour: lowEnd}
	ex, err := buildExtractor(approach, params, tou)
	if err != nil {
		return err
	}
	var result *core.Result
	if mt, ok := ex.(*core.MultiTariffExtractor); ok {
		if ref == "" {
			return fmt.Errorf("approach multitariff needs -ref (one-tariff series)")
		}
		reference, err := readSeries(ref)
		if err != nil {
			return fmt.Errorf("read %s: %w", ref, err)
		}
		result, err = mt.ExtractPair(reference, input)
		if err != nil {
			return err
		}
	} else {
		result, err = ex.Extract(input)
		if err != nil {
			return err
		}
	}

	if err := writeResult(result, offersOut, modifiedOut); err != nil {
		return err
	}

	fmt.Printf("%s: %d offers, %.3f kWh flexible (%.2f%% of input), modified series %.3f kWh\n",
		approach, len(result.Offers), result.Offers.TotalAvgEnergy(),
		result.Offers.TotalAvgEnergy()/input.Total()*100, result.Modified.Total())
	fmt.Printf("wrote %s and %s\n", offersOut, modifiedOut)

	reg := obs.NewRegistry()
	reg.NewGauge("flexextract_offers", "Flex-offers extracted by this run.").Set(int64(len(result.Offers)))
	reg.NewGaugeFunc("flexextract_flexible_kwh", "Flexible energy extracted, in kWh.", result.Offers.TotalAvgEnergy)
	reg.NewGaugeFunc("flexextract_modified_kwh", "Total energy left in the modified series, in kWh.", result.Modified.Total)
	return writeStats(reg, statsJSON)
}

// writeResult writes an extraction's offers (JSON) and modified series (CSV).
func writeResult(result *core.Result, offersOut, modifiedOut string) error {
	of, err := os.Create(offersOut)
	if err != nil {
		return err
	}
	werr := result.Offers.WriteJSON(of)
	if cerr := of.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", offersOut, werr)
	}
	mf, err := os.Create(modifiedOut)
	if err != nil {
		return err
	}
	werr = result.Modified.WriteCSV(mf)
	if cerr := mf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", modifiedOut, werr)
	}
	return nil
}

// runBatch extracts every *.csv under indir concurrently through the
// pipeline, writing per-series outputs into outdir.
func runBatch(indir, outdir, ref, approach string, flexPct float64, seed int64, jobsN int, lowStart, lowEnd int, resample time.Duration, statsJSON string) error {
	all, err := filepath.Glob(filepath.Join(indir, "*.csv"))
	if err != nil {
		return err
	}
	// Skip our own outputs: outdir defaults to indir, so without this a
	// second run would re-extract the *.modified.csv files it wrote.
	files := all[:0]
	for _, path := range all {
		if !strings.HasSuffix(path, ".modified.csv") {
			files = append(files, path)
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return fmt.Errorf("no *.csv files under %s", indir)
	}
	if outdir == "" {
		outdir = indir
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}

	tou := tariff.TimeOfUse{HighPrice: 0.40, LowPrice: 0.15, LowStartHour: lowStart, LowEndHour: lowEnd}
	var refSeries *timeseries.Series
	if approach == "multitariff" {
		if ref == "" {
			return fmt.Errorf("approach multitariff needs -ref (one-tariff series shared by the batch)")
		}
		if refSeries, err = readSeries(ref); err != nil {
			return fmt.Errorf("read %s: %w", ref, err)
		}
	}
	// Per-series deterministic seeds: base seed + batch index, so results
	// are independent of worker count and scheduling.
	seedOf := make(map[string]int64, len(files))
	for i, path := range files {
		id := strings.TrimSuffix(filepath.Base(path), ".csv")
		if _, dup := seedOf[id]; dup {
			return fmt.Errorf("duplicate series name %q under %s", id, indir)
		}
		seedOf[id] = seed + int64(i)
	}
	reg := obs.NewRegistry()
	telemetry := pipeline.NewTelemetry(reg)
	readErrGauge := reg.NewGauge("flexextract_read_errors", "Input CSVs that could not be read.")
	reg.NewGauge("flexextract_series_total", "Input CSVs discovered in the batch.").Set(int64(len(files)))

	cfg := pipeline.Config{
		Workers:   jobsN,
		Telemetry: telemetry,
		NewExtractor: func(j pipeline.Job) core.Extractor {
			params := core.DefaultParams()
			params.FlexPercentage = flexPct
			params.Seed = seedOf[j.ID]
			params.ConsumerID = j.ID
			ex, err := buildExtractor(approach, params, tou)
			if err != nil {
				return nil // rejected per job by the pipeline
			}
			return ex
		},
	}
	// Validate the approach once up front rather than failing every job.
	if _, err := buildExtractor(approach, core.DefaultParams(), tou); err != nil {
		return err
	}

	// Feeder: read CSVs sequentially, fan extraction out to the workers.
	// Unreadable files are collected and reported without sinking the rest
	// of the batch.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type readError struct {
		path string
		err  error
	}
	var readErrs []readError
	ch := make(chan pipeline.Job)
	go func() {
		defer close(ch)
		for _, path := range files {
			series, err := readSeries(path)
			if err == nil && resample > 0 {
				series, err = series.ResampleTo(resample)
			}
			if err != nil {
				readErrs = append(readErrs, readError{path, err})
				continue
			}
			job := pipeline.Job{ID: strings.TrimSuffix(filepath.Base(path), ".csv"), Series: series}
			if refSeries != nil {
				job.Reference = refSeries.Clone()
			}
			select {
			case ch <- job:
			case <-ctx.Done():
				return
			}
		}
	}()

	sink := pipeline.SinkFunc(func(_ context.Context, out pipeline.Output) error {
		return writeResult(out.Result,
			filepath.Join(outdir, out.JobID+".offers.json"),
			filepath.Join(outdir, out.JobID+".modified.csv"))
	})
	stats, err := pipeline.Run(ctx, cfg, ch, sink)
	if err != nil {
		return err
	}
	// A nil error means the jobs channel was drained to close, so the
	// feeder goroutine has finished and readErrs is quiescent.
	for _, re := range readErrs {
		fmt.Fprintf(os.Stderr, "flexextract: read %s: %v\n", re.path, re.err)
	}
	for _, je := range stats.JobErrors {
		fmt.Fprintf(os.Stderr, "flexextract: %v\n", je)
	}
	fmt.Printf("%s batch: %d/%d series, %d offers, %d errors, wall %v, busy %v, speedup %.2fx (%d workers)\n",
		approach, stats.SeriesProcessed, len(files), stats.OffersEmitted,
		stats.Errors+len(readErrs), stats.Wall.Round(time.Millisecond),
		stats.Busy.Round(time.Millisecond), stats.Speedup(), stats.Workers)
	fmt.Printf("wrote per-series offers and modified series under %s\n", outdir)
	readErrGauge.Set(int64(len(readErrs)))
	if err := writeStats(reg, statsJSON); err != nil {
		return err
	}
	if failed := stats.Errors + len(readErrs); failed > 0 {
		return fmt.Errorf("%d of %d series failed", failed, len(files))
	}
	return nil
}
