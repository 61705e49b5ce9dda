package kpi

import (
	"repro/internal/market"
)

// batchScope is one accumulation target of the batch pass: plain totals
// and plain load-curve maps, no cached peaks, no incremental state — the
// peaks come from a full scan at the end.
type batchScope struct {
	totals   Totals
	baseline map[int64]float64
	realised map[int64]float64
}

func newBatchScope() *batchScope {
	return &batchScope{baseline: make(map[int64]float64), realised: make(map[int64]float64)}
}

// values derives the scope's snapshot, scanning the curves for peaks.
func (b *batchScope) values() Values {
	t := b.totals
	t.BaselinePeakKWh = peakOf(b.baseline)
	t.RealisedPeakKWh = peakOf(b.realised)
	return deriveValues(t)
}

// book folds one accumulation step — deliberately a from-scratch twin of
// the Tracker's fold, kept in the exact same floating-point operation
// order so the equivalence property can demand bitwise equality.
func (b *batchScope) book(cfg Config, k foldKind, ev market.StoreEvent) {
	f := ev.Offer
	switch k {
	case foldSubmitted:
		b.totals.Submitted++
		b.totals.OfferedKWh += f.TotalAvgEnergy()
	case foldAccepted:
		b.totals.Accepted++
	case foldRejected:
		b.totals.Rejected++
	case foldExpiredOffered:
		b.totals.ExpiredOffered++
	case foldExpiredAccepted:
		b.totals.ExpiredAccepted++
	case foldAssigned:
		b.totals.Assigned++
		var assigned float64
		for _, e := range ev.Energies {
			assigned += e
		}
		b.totals.AssignedKWh += assigned
		b.totals.AssignedOfferedKWh += f.TotalAvgEnergy()
		shift := ev.Start.Sub(f.EarliestStart)
		if shift < 0 {
			shift = -shift
		}
		b.totals.ShiftSeconds += shift.Seconds()
		b.totals.TimeFlexSeconds += f.TimeFlexibility().Seconds()
		realisedAt, baselineAt := ev.Start, f.EarliestStart
		for i, s := range f.Profile {
			if i < len(ev.Energies) {
				b.totals.OffPeakAssignedKWh += cfg.offPeakKWh(realisedAt, s.Duration, ev.Energies[i])
				spreadEnergy(cfg.Resolution, realisedAt, s.Duration, ev.Energies[i], func(slot int64, kwh float64) {
					b.realised[slot] += kwh
				})
			}
			avg := s.AvgEnergy()
			b.totals.OffPeakBaselineKWh += cfg.offPeakKWh(baselineAt, s.Duration, avg)
			spreadEnergy(cfg.Resolution, baselineAt, s.Duration, avg, func(slot int64, kwh float64) {
				b.baseline[slot] += kwh
			})
			realisedAt = realisedAt.Add(s.Duration)
			baselineAt = baselineAt.Add(s.Duration)
		}
	}
}

// batchSteps is the journey expansion of the batch pass: given the
// offer's known phase (tracked=false when unseen), it returns the fold
// steps one event implies and the new phase (done=true on a terminal
// event). Semantically a twin of Tracker.expand, implemented against the
// contract in docs/KPI.md rather than shared.
func batchSteps(kind market.EventKind, ph phase, tracked bool) (steps []foldKind, next phase, done bool) {
	switch kind {
	case market.EventSubmitted:
		if tracked {
			return nil, ph, false
		}
		return []foldKind{foldSubmitted}, phaseOffered, false
	case market.EventAccepted:
		if tracked && ph == phaseAccepted {
			return nil, ph, false
		}
		steps = []foldKind{foldAccepted}
		if !tracked {
			steps = []foldKind{foldSubmitted, foldAccepted}
		}
		return steps, phaseAccepted, false
	case market.EventRejected:
		steps = []foldKind{foldRejected}
		if !tracked {
			steps = []foldKind{foldSubmitted, foldRejected}
		}
		return steps, ph, true
	case market.EventAssigned:
		switch {
		case !tracked:
			steps = []foldKind{foldSubmitted, foldAccepted, foldAssigned}
		case ph == phaseOffered:
			steps = []foldKind{foldAccepted, foldAssigned}
		default:
			steps = []foldKind{foldAssigned}
		}
		return steps, ph, true
	case market.EventExpired:
		switch {
		case !tracked:
			steps = []foldKind{foldSubmitted, foldExpiredOffered}
		case ph == phaseAccepted:
			steps = []foldKind{foldExpiredAccepted}
		default:
			steps = []foldKind{foldExpiredOffered}
		}
		return steps, ph, true
	default:
		return nil, ph, false
	}
}

// Compute recomputes the Report from a full event history in one batch
// pass. Fed the event sequence a Tracker consumed (in the same order),
// the result is bitwise-identical to the Tracker's Report — the
// equivalence TestKPIIncrementalBatchEquivalence proves over seeded
// lifecycle scripts. deadLetters books out-of-band dead-letter counts per
// owner (nil for none), mirroring Tracker.ObserveDeadLetters.
func Compute(cfg Config, events []market.StoreEvent, deadLetters map[string]uint64) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	cfg = cfg.withDefaults()

	global := newBatchScope()
	owners := make(map[string]*batchScope)
	phases := make(map[string]phase)
	tracked := make(map[string]bool)
	var folded uint64

	for _, ev := range events {
		if ev.Offer == nil {
			continue
		}
		folded++
		id := ev.Offer.ID
		steps, next, done := batchSteps(ev.Kind, phases[id], tracked[id])
		if done {
			delete(phases, id)
			delete(tracked, id)
		} else if len(steps) > 0 {
			phases[id] = next
			tracked[id] = true
		}
		if len(steps) == 0 {
			continue
		}
		owner := owners[ev.Offer.ConsumerID]
		if owner == nil {
			owner = newBatchScope()
			owners[ev.Offer.ConsumerID] = owner
		}
		for _, k := range steps {
			global.book(cfg, k, ev)
			owner.book(cfg, k, ev)
		}
	}
	for owner, n := range deadLetters {
		if n == 0 {
			continue
		}
		global.totals.DeadLettered += n
		sc := owners[owner]
		if sc == nil {
			sc = newBatchScope()
			owners[owner] = sc
		}
		sc.totals.DeadLettered += n
	}

	rep := Report{Config: cfg.view(), Events: folded, Global: global.values(), Owners: make(map[string]Values, len(owners))}
	for owner, sc := range owners {
		rep.Owners[owner] = sc.values()
	}
	return rep, nil
}

// FromRecords recomputes a Report from offer records — for example, the
// pages of GET /offers — by folding each record's replay event
// (market.Record.ReplayEvent), the one a fresh market.Follower delivers
// for it. A live /kpi endpoint and FromRecords over a complete listing of
// the same store therefore agree (the soak test's reconciliation); only
// history that final states erase — an expired offer's pre-expiry
// acceptance, the exact acceptance count behind an assignment — is
// attributed by the replay conventions of docs/KPI.md.
func FromRecords(cfg Config, records []market.Record, deadLetters map[string]uint64) (Report, error) {
	tr, err := NewTracker(cfg)
	if err != nil {
		return Report{}, err
	}
	for _, rec := range records {
		if rec.Offer == nil {
			continue
		}
		tr.Apply(rec.ReplayEvent())
	}
	for owner, n := range deadLetters {
		tr.ObserveDeadLetters(owner, n)
	}
	return tr.Report(), nil
}
