// Package disagg decomposes a total household consumption series into
// individual appliance activations — Step 1 ("Detect appliances") of the
// appliance-level flexibility extraction in Fig. 6 of the paper. The
// approach is event-based non-intrusive load monitoring: a robust base load
// is estimated and removed, rising edges in the residual propose candidate
// activation starts, and each candidate is matched against the appliance
// registry's energy signatures, greedily assigning the best-fitting
// appliance and subtracting its signature.
//
// The paper notes that 15-minute granularity is insufficient for this task
// (§6); the granularity ablation (experiment E8) quantifies exactly that
// degradation using this package at 1/5/15/30-minute resolutions.
package disagg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/appliance"
	"repro/internal/timeseries"
)

// ErrInput is wrapped by input validation errors.
var ErrInput = errors.New("disagg: invalid input")

// Detection is one recognised appliance activation.
type Detection struct {
	// Appliance names the matched registry entry.
	Appliance string
	// Start is the detected activation start.
	Start time.Time
	// Energy is the energy attributed to the activation, in kWh.
	Energy float64
	// Score is the match quality in (0, 1]: signature coverage weighted by
	// shape correlation.
	Score float64
}

// BaseEstimator selects how the inflexible base load is estimated before
// event matching.
type BaseEstimator int

const (
	// PhaseMedian (default) uses the per-time-of-day median across days.
	// It captures the base load's daily shape precisely, but absorbs loads
	// that recur at the same time every day (e.g. a robot on a strict
	// daily schedule) — they disappear from the residual.
	PhaseMedian BaseEstimator = iota
	// BlockQuantile uses a block-wise low quantile interpolated over time.
	// It is blind to the base load's intra-day shape but cannot absorb
	// daily-periodic appliances. The estimator ablation (experiment E16)
	// compares the two.
	BlockQuantile
)

// Config tunes the detector. Zero values select documented defaults.
type Config struct {
	// EdgeThresholdKWh is the minimum interval-over-interval rise in the
	// residual that proposes a candidate start. Default: 0.008 kWh per
	// minute of resolution.
	EdgeThresholdKWh float64
	// MinCoverage is the minimum fraction of a signature's energy that
	// must be present in the residual window. Default 0.7.
	MinCoverage float64
	// MinScore is the acceptance threshold on the combined match score.
	// Default 0.6.
	MinScore float64
	// Base selects the base-load estimator (default PhaseMedian).
	Base BaseEstimator
	// BaseQuantile is the quantile used by BlockQuantile (default 0.25).
	BaseQuantile float64
	// BaseWindow is the block length used by BlockQuantile (default one
	// day).
	BaseWindow time.Duration
}

func (c *Config) setDefaults(resolution time.Duration) {
	if c.EdgeThresholdKWh <= 0 {
		c.EdgeThresholdKWh = 0.008 * resolution.Minutes()
	}
	if c.MinCoverage <= 0 {
		c.MinCoverage = 0.7
	}
	if c.MinScore <= 0 {
		c.MinScore = 0.6
	}
	if c.BaseQuantile <= 0 || c.BaseQuantile >= 1 {
		c.BaseQuantile = 0.25
	}
	if c.BaseWindow <= 0 {
		c.BaseWindow = 24 * time.Hour
	}
}

// Result bundles the detections with the residual the detector could not
// explain (total minus base estimate minus matched signatures).
type Result struct {
	Detections []Detection
	// Base is the estimated inflexible base load.
	Base *timeseries.Series
	// Residual is what remains after removing base and matches.
	Residual *timeseries.Series
}

// Detect decomposes the total series against the registry.
func Detect(total *timeseries.Series, reg *appliance.Registry, cfg Config) (*Result, error) {
	if total == nil || total.Len() == 0 {
		return nil, fmt.Errorf("%w: empty series", ErrInput)
	}
	perDay := total.IntervalsPerDay()
	if perDay == 0 {
		return nil, fmt.Errorf("%w: resolution %v does not divide a day", ErrInput, total.Resolution())
	}
	if total.Resolution()%time.Minute != 0 {
		return nil, fmt.Errorf("%w: resolution %v must be whole minutes", ErrInput, total.Resolution())
	}
	cfg.setDefaults(total.Resolution())

	n := total.Len()
	base := make([]float64, n)
	switch cfg.Base {
	case PhaseMedian:
		// Per-phase median over days: the median suppresses occasional
		// appliance runs, leaving the always-on floor with its daily
		// shape.
		baseProf, err := timeseries.MedianProfile(total, perDay)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			b := baseProf[i%perDay]
			if math.IsNaN(b) {
				b = 0
			}
			base[i] = b
		}
	case BlockQuantile:
		window := int(cfg.BaseWindow / total.Resolution())
		if window > n {
			window = n
		}
		q := cfg.BaseQuantile
		baseline, err := total.BlockQuantileBaseline(window, q)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			b := baseline.Value(i)
			if math.IsNaN(b) {
				b = 0
			}
			base[i] = b
		}
	default:
		return nil, fmt.Errorf("%w: unknown base estimator %d", ErrInput, cfg.Base)
	}

	resid := make([]float64, n)
	for i := 0; i < n; i++ {
		r := total.Value(i) - base[i]
		if math.IsNaN(r) || r < 0 {
			r = 0
		}
		resid[i] = r
	}

	// Candidate starts: rising edges of the residual.
	var candidates []int
	for i := 0; i < n; i++ {
		prev := 0.0
		if i > 0 {
			prev = resid[i-1]
		}
		if resid[i]-prev >= cfg.EdgeThresholdKWh {
			candidates = append(candidates, i)
		}
	}

	// Signatures at the series resolution, largest energy first so big
	// loads (EVs) are explained before small ones that would fit inside
	// them.
	type sigEntry struct {
		app                *appliance.Appliance
		sig                []float64
		energy             float64
		minScale, maxScale float64
	}
	var sigs []sigEntry
	for _, a := range reg.All() {
		sig, err := a.SignatureAt(total.Resolution())
		if err != nil {
			return nil, err
		}
		var e float64
		for _, v := range sig {
			e += v
		}
		if e <= 0 {
			continue
		}
		// Runs vary in total energy within the appliance's range; matching
		// rescales the nominal signature within these bounds.
		sigs = append(sigs, sigEntry{
			app: a, sig: sig, energy: e,
			minScale: a.MinRunEnergy / e,
			maxScale: a.MaxRunEnergy / e,
		})
	}
	sort.SliceStable(sigs, func(i, j int) bool { return sigs[i].energy > sigs[j].energy })

	lastEnd := make(map[string]int) // exclusive end index of the latest match per appliance
	var detections []Detection
	for _, t := range candidates {
		bestScore, bestScale := 0.0, 0.0
		bestIdx := -1
		for si, se := range sigs {
			if t+len(se.sig) > n {
				continue
			}
			if end, ok := lastEnd[se.app.Name]; ok && t < end {
				continue // one physical unit cannot run twice concurrently
			}
			scale, cov, corr := matchWindow(resid[t:t+len(se.sig)], se.sig, se.minScale, se.maxScale)
			if cov < cfg.MinCoverage {
				continue
			}
			score := cov * (0.5 + 0.5*math.Max(0, corr))
			if score >= cfg.MinScore && score > bestScore {
				bestScore, bestScale, bestIdx = score, scale, si
			}
		}
		if bestIdx < 0 {
			continue
		}
		se := sigs[bestIdx]
		var energy float64
		for i, v := range se.sig {
			take := math.Min(v*bestScale, resid[t+i])
			resid[t+i] -= take
			energy += take
		}
		lastEnd[se.app.Name] = t + len(se.sig)
		detections = append(detections, Detection{
			Appliance: se.app.Name,
			Start:     total.TimeAt(t),
			Energy:    energy,
			Score:     bestScore,
		})
	}

	baseS, err := timeseries.New(total.Start(), total.Resolution(), base)
	if err != nil {
		return nil, err
	}
	residS, err := timeseries.New(total.Start(), total.Resolution(), resid)
	if err != nil {
		return nil, err
	}
	return &Result{Detections: detections, Base: baseS, Residual: residS}, nil
}

// matchWindow compares a residual window with a signature. The signature is
// first rescaled by the least-squares factor of window onto sig, clamped to
// [minScale, maxScale] (runs vary in energy within the appliance's range).
// It reports that scale, the coverage (fraction of scaled-signature energy
// available in the window, capped per interval) and the Pearson correlation
// between the two shapes (scale-invariant).
func matchWindow(window, sig []float64, minScale, maxScale float64) (scale, coverage, corr float64) {
	var sws, sss float64
	for i, s := range sig {
		sws += window[i] * s
		sss += s * s
	}
	if sss <= 0 {
		return 0, 0, 0
	}
	scale = sws / sss // least-squares fit of window = scale*sig
	if scale < minScale {
		scale = minScale
	}
	if scale > maxScale {
		scale = maxScale
	}

	var have, want float64
	for i, s := range sig {
		have += math.Min(window[i], s*scale)
		want += s * scale
	}
	if want <= 0 {
		return scale, 0, 0
	}
	coverage = have / want

	// Shape correlation (unaffected by the scale factor).
	nf := float64(len(sig))
	var sw, ss, sww float64
	for i, s := range sig {
		sw += window[i]
		ss += s
		sww += window[i] * window[i]
	}
	cov := sws/nf - (sw/nf)*(ss/nf)
	vw := sww/nf - (sw/nf)*(sw/nf)
	vs := sss/nf - (ss/nf)*(ss/nf)
	if vw <= 0 || vs <= 0 {
		return scale, coverage, 0
	}
	return scale, coverage, cov / math.Sqrt(vw*vs)
}
