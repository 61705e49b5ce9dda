package kpi

import (
	"sync"
	"time"

	"repro/internal/market"
)

// phase is the tracker's per-offer lifecycle memory: just enough to
// attribute a later terminal event (which state did it expire from?) and
// to backfill the implied prefix of a replay event. Terminal offers are
// forgotten, so the map is bounded by the live population, not history.
type phase int

const (
	phaseOffered phase = iota
	phaseAccepted
)

// foldKind is one atomic accumulation step. A single store event can fold
// as several steps: a replay event describing an already-assigned offer
// folds as submitted+accepted+assigned, because the snapshot collapsed the
// offer's whole journey into its final state.
type foldKind int

const (
	foldSubmitted foldKind = iota
	foldAccepted
	foldRejected
	foldAssigned
	foldExpiredOffered
	foldExpiredAccepted
)

// curve is one scope's load curve with an incrementally maintained peak:
// positive adds update the running maximum in O(1); a negative add (a
// production-offer slice) can lower a bucket, so it just marks the cached
// peak dirty and the next read rescans.
type curve struct {
	buckets map[int64]float64
	peak    float64
	dirty   bool
}

// add books one bucket delta and maintains the cached peak.
func (c *curve) add(slot int64, kwh float64) {
	if c.buckets == nil {
		c.buckets = make(map[int64]float64)
	}
	c.buckets[slot] += kwh
	if kwh < 0 {
		c.dirty = true
		return
	}
	if !c.dirty && c.buckets[slot] > c.peak {
		c.peak = c.buckets[slot]
	}
}

// peakKWh returns the curve's peak, rescanning if a negative add
// invalidated the running maximum.
func (c *curve) peakKWh() float64 {
	if c.dirty {
		c.peak = peakOf(c.buckets)
		c.dirty = false
	}
	return c.peak
}

// scope is one accumulation target (the global tally or one owner).
type scope struct {
	totals   Totals
	baseline curve
	realised curve
}

// values snapshots the scope into a derived Values.
func (sc *scope) values() Values {
	t := sc.totals
	t.BaselinePeakKWh = sc.baseline.peakKWh()
	t.RealisedPeakKWh = sc.realised.peakKWh()
	return deriveValues(t)
}

// Tracker is the incremental KPI engine: Apply folds one store event in
// O(1) (amortised over the event's profile slices), and Report snapshots
// the derived indicators at any point. A Tracker fed a store's
// replay-bootstrapped event stream converges on the same Report that Compute
// derives from the full event history — the equivalence the property
// test pins. All methods are safe for concurrent use.
type Tracker struct {
	cfg Config

	mu     sync.Mutex
	events uint64            // guarded by mu: events folded (replay and live)
	global scope             // guarded by mu
	owners map[string]*scope // guarded by mu, keyed by ConsumerID
	state  map[string]phase  // guarded by mu: live (non-terminal) offers
}

// NewTracker builds an empty tracker with the given configuration (zero
// fields take package defaults). The configuration must validate.
func NewTracker(cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newTracker(cfg.withDefaults()), nil
}

// newTracker builds an empty tracker from an already validated, defaulted
// configuration.
func newTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg, owners: make(map[string]*scope), state: make(map[string]phase)}
}

// ownerScopeLocked returns (creating if needed) the owner's accumulation
// scope. The caller must hold t.mu.
func (t *Tracker) ownerScopeLocked(owner string) *scope {
	sc := t.owners[owner]
	if sc == nil {
		sc = &scope{}
		t.owners[owner] = sc
	}
	return sc
}

// Apply folds one store event into the tracker. Replay events fold like
// live ones, with the journey the snapshot collapsed backfilled: an
// untracked offer arriving as "assigned" also counts as submitted and
// accepted. Events without an offer are ignored.
func (t *Tracker) Apply(ev market.StoreEvent) {
	if ev.Offer == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	folds := t.expandLocked(ev)
	if len(folds) == 0 {
		return
	}
	owner := t.ownerScopeLocked(ev.Offer.ConsumerID)
	for _, k := range folds {
		t.fold(&t.global, k, ev)
		t.fold(owner, k, ev)
	}
}

// expandLocked translates one event into its fold steps given the
// offer's tracked phase, updating the phase map. Duplicate transitions
// (an event that does not advance the tracked phase) expand to nothing.
// The caller must hold t.mu.
func (t *Tracker) expandLocked(ev market.StoreEvent) []foldKind {
	id := ev.Offer.ID
	ph, tracked := t.state[id]
	switch ev.Kind {
	case market.EventSubmitted:
		if tracked {
			return nil
		}
		t.state[id] = phaseOffered
		return []foldKind{foldSubmitted}
	case market.EventAccepted:
		if tracked && ph == phaseAccepted {
			return nil
		}
		t.state[id] = phaseAccepted
		if !tracked {
			return []foldKind{foldSubmitted, foldAccepted}
		}
		return []foldKind{foldAccepted}
	case market.EventRejected:
		delete(t.state, id)
		if !tracked {
			return []foldKind{foldSubmitted, foldRejected}
		}
		return []foldKind{foldRejected}
	case market.EventAssigned:
		delete(t.state, id)
		switch {
		case !tracked:
			return []foldKind{foldSubmitted, foldAccepted, foldAssigned}
		case ph == phaseOffered:
			return []foldKind{foldAccepted, foldAssigned}
		default:
			return []foldKind{foldAssigned}
		}
	case market.EventExpired:
		delete(t.state, id)
		switch {
		case !tracked:
			// A replay-bootstrap expiry: the pre-expiry state is not in
			// the snapshot, so it attributes as expired-while-offered
			// (docs/KPI.md documents the convention).
			return []foldKind{foldSubmitted, foldExpiredOffered}
		case ph == phaseAccepted:
			return []foldKind{foldExpiredAccepted}
		default:
			return []foldKind{foldExpiredOffered}
		}
	default:
		return nil
	}
}

// fold books one accumulation step into one scope.
func (t *Tracker) fold(sc *scope, k foldKind, ev market.StoreEvent) {
	f := ev.Offer
	switch k {
	case foldSubmitted:
		sc.totals.Submitted++
		sc.totals.OfferedKWh += f.TotalAvgEnergy()
	case foldAccepted:
		sc.totals.Accepted++
	case foldRejected:
		sc.totals.Rejected++
	case foldExpiredOffered:
		sc.totals.ExpiredOffered++
	case foldExpiredAccepted:
		sc.totals.ExpiredAccepted++
	case foldAssigned:
		sc.totals.Assigned++
		var assigned float64
		for _, e := range ev.Energies {
			assigned += e
		}
		sc.totals.AssignedKWh += assigned
		sc.totals.AssignedOfferedKWh += f.TotalAvgEnergy()
		shift := ev.Start.Sub(f.EarliestStart)
		if shift < 0 {
			shift = -shift
		}
		sc.totals.ShiftSeconds += shift.Seconds()
		sc.totals.TimeFlexSeconds += f.TimeFlexibility().Seconds()
		realisedAt, baselineAt := ev.Start, f.EarliestStart
		for i, s := range f.Profile {
			if i < len(ev.Energies) {
				sc.totals.OffPeakAssignedKWh += t.cfg.offPeakKWh(realisedAt, s.Duration, ev.Energies[i])
				spreadEnergy(t.cfg.Resolution, realisedAt, s.Duration, ev.Energies[i], sc.realised.add)
			}
			avg := s.AvgEnergy()
			sc.totals.OffPeakBaselineKWh += t.cfg.offPeakKWh(baselineAt, s.Duration, avg)
			spreadEnergy(t.cfg.Resolution, baselineAt, s.Duration, avg, sc.baseline.add)
			realisedAt = realisedAt.Add(s.Duration)
			baselineAt = baselineAt.Add(s.Duration)
		}
	}
}

// ObserveDeadLetters books n dead-lettered offers against owner (and the
// global scope). Dead letters never reach the store — the resilient sink
// swallows them after exhausting its retry budget — so this side channel
// is how the loss ratio learns about them.
func (t *Tracker) ObserveDeadLetters(owner string, n uint64) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.global.totals.DeadLettered += n
	t.ownerScopeLocked(owner).totals.DeadLettered += n
}

// Report snapshots every scope's derived KPI values.
func (t *Tracker) Report() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := Report{
		Config: t.cfg.view(),
		Events: t.events,
		Global: t.global.values(),
		Owners: make(map[string]Values, len(t.owners)),
	}
	for owner, sc := range t.owners {
		rep.Owners[owner] = sc.values()
	}
	return rep
}

// GlobalValues snapshots just the global scope — the cheap read metric
// callbacks use, avoiding the per-owner map of a full Report.
func (t *Tracker) GlobalValues() Values {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.global.values()
}

// Resolution reports the effective bucket resolution.
func (t *Tracker) Resolution() time.Duration { return t.cfg.Resolution }

// Events reports the number of store events folded so far.
func (t *Tracker) Events() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}
