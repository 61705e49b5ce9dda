package disagg

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/household"
	"repro/internal/timeseries"
)

var (
	reg = appliance.Default()
	t0  = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC) // a Monday
)

// syntheticTotal builds days of flat base load (kWh per minute) and embeds
// the given appliance runs (appliance name → start minute offset, scaled by
// energy fraction within the run range).
type embeddedRun struct {
	app         string
	startMinute int
	energyFrac  float64 // 0 → MinRunEnergy, 1 → MaxRunEnergy
}

func syntheticTotal(t *testing.T, days int, basePerMin float64, runs []embeddedRun) *timeseries.Series {
	t.Helper()
	n := days * 1440
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = basePerMin
	}
	for _, r := range runs {
		a, ok := reg.Get(r.app)
		if !ok {
			t.Fatalf("unknown appliance %s", r.app)
		}
		energy := a.MinRunEnergy + r.energyFrac*(a.MaxRunEnergy-a.MinRunEnergy)
		nom := a.NominalProfile()
		var nomSum float64
		for _, v := range nom {
			nomSum += v
		}
		for i, v := range nom {
			if r.startMinute+i < n {
				vals[r.startMinute+i] += v * energy / nomSum
			}
		}
	}
	return timeseries.MustNew(t0, time.Minute, vals)
}

func TestDetectSingleCleanRun(t *testing.T) {
	total := syntheticTotal(t, 3, 0.004, []embeddedRun{
		{app: "washing machine Y", startMinute: 1440 + 600, energyFrac: 0.5},
	})
	res, err := Detect(total, reg, Config{})
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	if len(res.Detections) != 1 {
		t.Fatalf("detections = %d, want 1: %+v", len(res.Detections), res.Detections)
	}
	d := res.Detections[0]
	if d.Appliance != "washing machine Y" {
		t.Errorf("appliance = %s", d.Appliance)
	}
	wantStart := t0.Add(time.Duration(1440+600) * time.Minute)
	if !d.Start.Equal(wantStart) {
		t.Errorf("start = %v, want %v", d.Start, wantStart)
	}
	if d.Energy < 1.8 || d.Energy > 2.4 { // true energy 2.1
		t.Errorf("energy = %v, want ~2.1", d.Energy)
	}
	if d.Score < 0.8 {
		t.Errorf("score = %v, want high", d.Score)
	}
}

func TestDetectLowEnergyRunViaScaling(t *testing.T) {
	total := syntheticTotal(t, 3, 0.004, []embeddedRun{
		{app: "washing machine Y", startMinute: 1440 + 600, energyFrac: 0}, // 1.2 kWh, 57% of nominal
	})
	res, err := Detect(total, reg, Config{})
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	if len(res.Detections) != 1 || res.Detections[0].Appliance != "washing machine Y" {
		t.Fatalf("low-energy run not detected: %+v", res.Detections)
	}
	if e := res.Detections[0].Energy; e < 1.0 || e > 1.5 {
		t.Errorf("energy = %v, want ~1.2", e)
	}
}

func TestDetectTwoAppliances(t *testing.T) {
	total := syntheticTotal(t, 3, 0.004, []embeddedRun{
		{app: "washing machine Y", startMinute: 1440 + 300, energyFrac: 0.5},
		{app: "dishwasher Z", startMinute: 1440 + 900, energyFrac: 0.5},
	})
	res, err := Detect(total, reg, Config{})
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	found := map[string]bool{}
	for _, d := range res.Detections {
		found[d.Appliance] = true
	}
	if !found["washing machine Y"] || !found["dishwasher Z"] {
		t.Errorf("detections = %+v", res.Detections)
	}
}

func TestDetectResidualReduced(t *testing.T) {
	total := syntheticTotal(t, 3, 0.004, []embeddedRun{
		{app: "washing machine Y", startMinute: 1440 + 600, energyFrac: 0.5},
	})
	res, err := Detect(total, reg, Config{})
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	// Residual after subtracting the matched run should carry far less
	// energy than the run itself.
	if res.Residual.Total() > 0.5 {
		t.Errorf("residual energy = %v, want < 0.5", res.Residual.Total())
	}
	// Base estimate should reconstruct the flat base.
	if math.Abs(res.Base.Value(100)-0.004) > 1e-6 {
		t.Errorf("base estimate = %v, want 0.004", res.Base.Value(100))
	}
}

func TestDetectNothingOnPureBase(t *testing.T) {
	total := syntheticTotal(t, 3, 0.004, nil)
	res, err := Detect(total, reg, Config{})
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	if len(res.Detections) != 0 {
		t.Errorf("detections on flat base = %+v", res.Detections)
	}
}

func TestDetectErrors(t *testing.T) {
	if _, err := Detect(nil, reg, Config{}); !errors.Is(err, ErrInput) {
		t.Errorf("nil series: %v", err)
	}
	empty := timeseries.MustNew(t0, time.Minute, nil)
	if _, err := Detect(empty, reg, Config{}); !errors.Is(err, ErrInput) {
		t.Errorf("empty series: %v", err)
	}
	odd := timeseries.MustNew(t0, 7*time.Hour, make([]float64, 10))
	if _, err := Detect(odd, reg, Config{}); !errors.Is(err, ErrInput) {
		t.Errorf("non-dividing resolution: %v", err)
	}
	subMinute := timeseries.MustNew(t0, 30*time.Second, make([]float64, 10))
	if _, err := Detect(subMinute, reg, Config{}); !errors.Is(err, ErrInput) {
		t.Errorf("sub-minute resolution: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.setDefaults(15 * time.Minute)
	if c.EdgeThresholdKWh != 0.008*15 {
		t.Errorf("edge default = %v", c.EdgeThresholdKWh)
	}
	if c.MinCoverage != 0.7 || c.MinScore != 0.6 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{EdgeThresholdKWh: 1, MinCoverage: 0.5, MinScore: 0.9}
	c2.setDefaults(time.Minute)
	if c2.EdgeThresholdKWh != 1 || c2.MinCoverage != 0.5 || c2.MinScore != 0.9 {
		t.Errorf("explicit config overwritten: %+v", c2)
	}
}

func TestMatchWindow(t *testing.T) {
	sig := []float64{1, 2, 3, 2, 1}
	// Perfect match at scale 1.
	scale, cov, corr := matchWindow([]float64{1, 2, 3, 2, 1}, sig, 0.5, 1.5)
	if math.Abs(scale-1) > 1e-9 || math.Abs(cov-1) > 1e-9 || corr < 0.999 {
		t.Errorf("perfect match = (%v, %v, %v)", scale, cov, corr)
	}
	// Scaled-down run within bounds.
	scale, cov, corr = matchWindow([]float64{0.6, 1.2, 1.8, 1.2, 0.6}, sig, 0.5, 1.5)
	if math.Abs(scale-0.6) > 1e-9 || cov < 0.999 || corr < 0.999 {
		t.Errorf("scaled match = (%v, %v, %v)", scale, cov, corr)
	}
	// Scale clamped to bounds.
	scale, _, _ = matchWindow([]float64{10, 20, 30, 20, 10}, sig, 0.5, 1.5)
	if scale != 1.5 {
		t.Errorf("clamped scale = %v, want 1.5", scale)
	}
	// Empty window: low coverage.
	_, cov, _ = matchWindow([]float64{0, 0, 0, 0, 0}, sig, 0.5, 1.5)
	if cov > 0.01 {
		t.Errorf("empty window coverage = %v", cov)
	}
	// Zero signature.
	scale, cov, corr = matchWindow([]float64{1, 1}, []float64{0, 0}, 0.5, 1.5)
	if scale != 0 || cov != 0 || corr != 0 {
		t.Errorf("zero signature = (%v, %v, %v)", scale, cov, corr)
	}
}

// matchTruth counts detections matching ground-truth activations of the
// same appliance within the tolerance.
func matchTruth(dets []Detection, truth []household.Activation, tol time.Duration) (tp int) {
	used := make([]bool, len(dets))
	for _, act := range truth {
		for i, d := range dets {
			if used[i] || d.Appliance != act.Appliance {
				continue
			}
			delta := d.Start.Sub(act.Start)
			if delta < 0 {
				delta = -delta
			}
			if delta <= tol {
				used[i] = true
				tp++
				break
			}
		}
	}
	return tp
}

// TestDetectOnSimulatedHousehold checks end-to-end recall/precision on the
// simulator's ground truth at 1-minute resolution.
func TestDetectOnSimulatedHousehold(t *testing.T) {
	cfg := household.Config{
		ID: "disagg-test", Residents: 2,
		Appliances: []string{"washing machine Y", "dishwasher Z", "refrigerator"},
		BaseLoadKW: 0.2, MorningPeak: 0.5, EveningPeak: 0.8, NoiseStd: 0.05,
		Seed: 11,
	}
	sim, err := household.Simulate(reg, cfg, t0, 14, time.Minute)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	res, err := Detect(sim.Total, reg, Config{})
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	var truth []household.Activation
	for _, a := range sim.Activations {
		if a.Flexible {
			truth = append(truth, a)
		}
	}
	if len(truth) == 0 {
		t.Fatal("no flexible ground truth")
	}
	tp := matchTruth(res.Detections, truth, 10*time.Minute)
	recall := float64(tp) / float64(len(truth))
	if recall < 0.6 {
		t.Errorf("recall = %.2f (%d/%d), want >= 0.6", recall, tp, len(truth))
	}
	if len(res.Detections) > 0 {
		precision := float64(tp) / float64(len(res.Detections))
		if precision < 0.5 {
			t.Errorf("precision = %.2f (%d/%d), want >= 0.5", precision, tp, len(res.Detections))
		}
	}
}

// TestGranularityDegradation reproduces the paper's §6 observation: at
// 15-minute granularity appliance detection is substantially worse than at
// 1-minute granularity.
func TestGranularityDegradation(t *testing.T) {
	cfg := household.Config{
		ID: "granularity-test", Residents: 2,
		Appliances: []string{"washing machine Y", "dishwasher Z", "refrigerator"},
		BaseLoadKW: 0.2, MorningPeak: 0.5, EveningPeak: 0.8, NoiseStd: 0.05,
		Seed: 13,
	}
	sim, err := household.Simulate(reg, cfg, t0, 14, time.Minute)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	var truth []household.Activation
	for _, a := range sim.Activations {
		if a.Flexible {
			truth = append(truth, a)
		}
	}
	recallAt := func(res time.Duration) float64 {
		total, err := sim.Total.ResampleTo(res)
		if err != nil {
			t.Fatalf("resample: %v", err)
		}
		out, err := Detect(total, reg, Config{})
		if err != nil {
			t.Fatalf("Detect: %v", err)
		}
		return float64(matchTruth(out.Detections, truth, res+10*time.Minute)) / float64(len(truth))
	}
	fine := recallAt(time.Minute)
	coarse := recallAt(30 * time.Minute)
	if fine <= coarse {
		t.Errorf("recall at 1m (%.2f) not above recall at 30m (%.2f)", fine, coarse)
	}
}

// TestBlockQuantileBaseRecoversDailyPeriodicLoad exercises the phase-median
// blind spot: a load running at the same time every day is absorbed into
// the per-phase median base estimate but survives a block-quantile
// baseline.
func TestBlockQuantileBaseRecoversDailyPeriodicLoad(t *testing.T) {
	// 7 days of flat base plus a washing-machine run at exactly 10:00
	// every day.
	var runs []embeddedRun
	for d := 0; d < 7; d++ {
		runs = append(runs, embeddedRun{app: "washing machine Y", startMinute: d*1440 + 600, energyFrac: 0.5})
	}
	total := syntheticTotal(t, 7, 0.004, runs)

	median, err := Detect(total, reg, Config{Base: PhaseMedian})
	if err != nil {
		t.Fatalf("PhaseMedian: %v", err)
	}
	quant, err := Detect(total, reg, Config{Base: BlockQuantile})
	if err != nil {
		t.Fatalf("BlockQuantile: %v", err)
	}
	countWasher := func(dets []Detection) int {
		var n int
		for _, d := range dets {
			if d.Appliance == "washing machine Y" {
				n++
			}
		}
		return n
	}
	m, q := countWasher(median.Detections), countWasher(quant.Detections)
	if m >= q {
		t.Errorf("phase-median found %d washer runs, block-quantile %d; expected the quantile baseline to recover more", m, q)
	}
	if q < 5 {
		t.Errorf("block-quantile recovered only %d of 7 strictly-daily runs", q)
	}
}

func TestDetectUnknownBaseEstimator(t *testing.T) {
	total := syntheticTotal(t, 3, 0.004, nil)
	if _, err := Detect(total, reg, Config{Base: BaseEstimator(99)}); !errors.Is(err, ErrInput) {
		t.Errorf("unknown estimator: %v", err)
	}
}

func TestConfigBaseDefaults(t *testing.T) {
	var c Config
	c.setDefaults(time.Minute)
	if c.BaseQuantile != 0.25 || c.BaseWindow != 24*time.Hour {
		t.Errorf("base defaults = %+v", c)
	}
}
