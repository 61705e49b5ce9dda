package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/flexoffer"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/res"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// ErrLedger wraps ledger append failures: the write-ahead contract held,
// so nothing the failed round would have decided was applied to the store.
var ErrLedger = errors.New("sched: ledger append failed")

// Config configures a scheduler Service.
type Config struct {
	// Store is the market store the service consumes events from and
	// applies assignments to. Required.
	Store *market.Store
	// Horizon is the scheduling horizon length (default 24 h).
	Horizon time.Duration
	// Resolution is the horizon grid and the slice duration conforming
	// offers share (default 15 min).
	Resolution time.Duration
	// Supply produces the supply series each round balances against;
	// WindForecastSupply with library defaults and SupplySeed when nil.
	Supply SupplyFunc
	// SupplySeed seeds the default supply simulation (ignored when
	// Supply is set).
	SupplySeed int64
	// Clock is the service clock (time.Now when nil); rounds schedule
	// the horizon starting at the clock reading aligned up to the grid.
	Clock func() time.Time
	// LedgerDir, when non-empty, persists every scheduling decision to a
	// write-ahead log in that directory; empty runs without durability.
	LedgerDir string
	// Policy is the ledger fsync policy (zero value: sync every append).
	Policy wal.SyncPolicy
	// SegmentBytes is the ledger segment rotation threshold.
	SegmentBytes int64
	// FS is the filesystem the ledger lives on (wal.DiskFS when nil);
	// the fault-injection seam.
	FS wal.FS
	// EventHighWater bounds the event-stream queue; on overflow the
	// service empties its aggregator and resyncs from a fresh replay
	// (market.Follower) instead of growing memory without limit. 0 leaves
	// the queue unbounded.
	EventHighWater int
	// Logger receives service lifecycle logs; may be nil.
	Logger *obs.Logger
}

// historyLimit bounds the recent-run window Status reports, live and after
// a ledger replay.
const historyLimit = 64

// Service runs online aggregation and scheduling against a market store:
// it follows the store's event stream so accepted offers join (and
// departing offers leave) an incremental aggregator, and each scheduling
// round assigns the current aggregates against a supply forecast,
// journaling every decision write-ahead before disaggregated member
// assignments are applied back to the store.
//
// The service has no background goroutine of its own: the event stream is
// drained synchronously at the start of every round and query, and rounds
// are driven either by RunPeriodically or by POST /schedule/run. All
// methods are safe for concurrent use.
type Service struct {
	cfg    Config
	inc    *agg.Incremental // immutable pointer; a resync resets it in place
	ledger *wal.Log         // nil when running without durability

	// runMu serialises scheduling rounds (and ledger appends with them),
	// event drains and Close.
	runMu  sync.Mutex
	events *market.Follower // drained and closed under runMu

	mu          sync.Mutex
	runs        uint64         // guarded by mu: rounds completed, lifetime across restarts
	decisions   uint64         // guarded by mu: decisions journaled+applied, lifetime
	assignedKWh float64        // guarded by mu: total scheduled energy, lifetime
	applyErrs   uint64         // guarded by mu: member assignments the store rejected
	ledgerErrs  uint64         // guarded by mu: ledger append failures
	dropped     uint64         // guarded by mu: events that failed to fold into the aggregator
	lastRun     *RunSummary    // guarded by mu
	history     []RunSummary   // guarded by mu: recent runs, newest last
	recovered   RecoveryInfo   // guarded by mu: what ledger replay restored
	runSeconds  *obs.Histogram // guarded by mu: round-duration instrument, nil until registered
}

// RecoveryInfo reports what the service restored from its ledger at start.
type RecoveryInfo struct {
	// Records is the number of valid ledger records replayed.
	Records uint64 `json:"records"`
	// Runs is the last completed round number found in the ledger.
	Runs uint64 `json:"runs"`
	// Decisions is the number of decision records replayed.
	Decisions uint64 `json:"decisions"`
	// TornTail reports whether the ledger lost a torn final record.
	TornTail bool `json:"torn_tail"`
}

// New builds a Service: it opens and replays the decision ledger (when
// configured), then follows the store's event stream, folding a replay of
// the store's contents into the aggregator one shard at a time, so the
// aggregator holds the store's current accepted population when New
// returns.
func New(cfg Config) (*Service, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("%w: nil store", ErrInput)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 24 * time.Hour
	}
	if cfg.Resolution <= 0 {
		cfg.Resolution = 15 * time.Minute
	}
	if cfg.Horizon%cfg.Resolution != 0 {
		return nil, fmt.Errorf("%w: horizon %v not a multiple of resolution %v", ErrInput, cfg.Horizon, cfg.Resolution)
	}
	if cfg.Supply == nil {
		cfg.Supply = WindForecastSupply(res.DefaultWindModel(), res.DefaultTurbine(), 3, cfg.SupplySeed)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	inc, err := agg.NewIncremental(agg.DefaultParams(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg: cfg,
		inc: inc,
	}
	if cfg.LedgerDir != "" {
		ledger, info, err := wal.Open(wal.Options{
			Dir:          cfg.LedgerDir,
			SegmentBytes: cfg.SegmentBytes,
			Policy:       cfg.Policy,
			FS:           cfg.FS,
		})
		if err != nil {
			return nil, fmt.Errorf("sched: open ledger: %w", err)
		}
		st, err := replayLedger(ledger)
		if err != nil {
			ledger.Close()
			return nil, err
		}
		s.ledger = ledger
		// The service is not shared yet, but taking the lock keeps the
		// guarded-field discipline uniform (and costs nothing uncontended).
		s.mu.Lock()
		s.runs = st.runs
		s.decisions = st.decisions
		s.assignedKWh = st.assignedKWh
		s.history = st.history
		s.lastRun = st.lastRun
		s.recovered = RecoveryInfo{
			Records:   info.Records,
			Runs:      st.runs,
			Decisions: st.decisions,
			TornTail:  info.TornTail,
		}
		s.mu.Unlock()
		cfg.Logger.Info("scheduler ledger recovered",
			"records", info.Records, "runs", st.runs, "decisions", st.decisions, "torn_tail", info.TornTail)
	}
	// Follow folds the store's contents through s.apply before it
	// returns, so it runs under the lock every later drain holds.
	s.runMu.Lock()
	s.events = cfg.Store.Follow(cfg.EventHighWater, s.apply, inc.Reset, cfg.Logger.With("consumer", "sched"))
	s.runMu.Unlock()
	return s, nil
}

// Close detaches from the event stream and closes the ledger. It waits for
// a running round, so the ledger never closes under a round's append.
func (s *Service) Close() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.events.Close()
	if s.ledger != nil {
		return s.ledger.Close()
	}
	return nil
}

// apply folds one store event into the aggregator: accepted offers join,
// offers leaving the accepted state (rejected, expired, assigned) leave.
// Submitted events are ignored — only accepted offers are scheduled — and
// replay events fold exactly like live ones. It runs inside
// market.Store.Follow (from New) and s.events.Drain, under runMu.
func (s *Service) apply(ev market.StoreEvent) {
	switch ev.Kind {
	case market.EventAccepted:
		if err := s.inc.Add(ev.Offer); err != nil {
			s.mu.Lock()
			s.dropped++
			s.mu.Unlock()
			s.cfg.Logger.Warn("aggregator rejected offer", "id", ev.Offer.ID, "err", err)
		}
	case market.EventRejected, market.EventExpired, market.EventAssigned:
		s.inc.Remove(ev.Offer.ID)
	}
}

// Aggregates drains pending events and returns the current aggregation.
func (s *Service) Aggregates() ([]*agg.Aggregate, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.events.Drain()
	return s.inc.Aggregates()
}

// AggStats drains pending events and snapshots the aggregator counters.
func (s *Service) AggStats() agg.IncrementalStats {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.events.Drain()
	return s.inc.Stats()
}

// journalDecision appends one decision record to the write-ahead ledger
// and returns the receipt that applying it needs. Without a ledger it
// appends nothing and still returns the receipt, so the write-ahead order
// is unconditional at the call site: a decision is either durable or
// durability is off, never silently skipped.
func (s *Service) journalDecision(dec *Decision) (ledgered, error) {
	if s.ledger != nil {
		if err := appendRecord(s.ledger, ledgerRecord{Kind: recordDecision, Decision: dec}); err != nil {
			return ledgered{}, err
		}
	}
	return ledgered{dec: dec}, nil
}

// ledgered is the receipt for a decision the ledger holds: only
// journalDecision returns one. Applying a decision is a method on it, so
// applying one that was not journaled first does not compile.
type ledgered struct {
	dec *Decision
}

// apply assigns the decision's members in the store and counts the ones
// it refused (an offer expired or was assigned between drain and apply).
// It is the only caller of Store.Assign in this package.
func (l ledgered) apply(store *market.Store, log *obs.Logger) (applied, failed int) {
	for _, m := range l.dec.Members {
		if _, err := store.Assign(m.ID, m.Start, m.Energies); err != nil {
			failed++
			log.Debug("assignment apply failed", "offer", m.ID, "err", err)
			continue
		}
		applied++
	}
	return applied, failed
}

// journalRun appends the round-summary record to the write-ahead ledger,
// no-oping without one (see journalDecision).
func (s *Service) journalRun(run *RunSummary) error {
	if s.ledger == nil {
		return nil
	}
	return appendRecord(s.ledger, ledgerRecord{Kind: recordRun, Run: run})
}

// alignUp rounds t up to the next resolution-grid point (identity when t
// is already on the grid).
func alignUp(t time.Time, resolution time.Duration) time.Time {
	aligned := t.Truncate(resolution)
	if aligned.Before(t) {
		aligned = aligned.Add(resolution)
	}
	return aligned
}

// RunOnce executes one scheduling round: drain events, aggregate, forecast
// supply over the horizon starting at the next grid point, schedule the
// aggregates, and for each scheduled aggregate journal the disaggregated
// decision write-ahead before applying the member assignments to the
// store. A ledger failure aborts the round with ErrLedger before anything
// was applied; store-side apply failures (an offer expired between drain
// and apply) are counted, not fatal.
func (s *Service) RunOnce() (RunSummary, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	began := time.Now()
	s.events.Drain()

	now := s.cfg.Clock()
	start := alignUp(now, s.cfg.Resolution)
	n := int(s.cfg.Horizon / s.cfg.Resolution)

	aggs, err := s.inc.Aggregates()
	if err != nil {
		return RunSummary{}, err
	}
	supply, err := s.cfg.Supply(start, n, s.cfg.Resolution)
	if err != nil {
		return RunSummary{}, err
	}
	inflexible, err := timeseries.Zeros(start, s.cfg.Resolution, n)
	if err != nil {
		return RunSummary{}, err
	}

	offers := make(flexoffer.Set, 0, len(aggs))
	byID := make(map[string]*agg.Aggregate, len(aggs))
	for _, a := range aggs {
		offers = append(offers, a.Offer)
		byID[a.Offer.ID] = a
	}
	result, err := (&Scheduler{}).Schedule(offers, inflexible, supply)
	if err != nil {
		return RunSummary{}, err
	}
	imbalance, err := Imbalance(result.Demand, supply)
	if err != nil {
		return RunSummary{}, err
	}

	s.mu.Lock()
	run := s.runs + 1
	s.mu.Unlock()

	summary := RunSummary{
		Run:          run,
		At:           now,
		HorizonStart: start,
		Aggregates:   len(aggs),
		Skipped:      len(result.Skipped),
		Imbalance:    imbalance,
	}
	for _, asg := range result.Assignments {
		a := byID[asg.Offer.ID]
		members, err := a.Disaggregate(asg)
		if err != nil {
			// Cannot happen for aggregates built by the service; treat a
			// violation as an apply error and keep the round going.
			summary.ApplyErrors++
			s.cfg.Logger.Warn("disaggregate failed", "aggregate", asg.Offer.ID, "err", err)
			continue
		}
		dec := Decision{
			Run:         run,
			AggregateID: asg.Offer.ID,
			At:          now,
			Start:       asg.Start,
			Energies:    asg.Energies,
			Members:     make([]MemberAssignment, len(members)),
		}
		for i, m := range members {
			dec.Members[i] = MemberAssignment{ID: m.Offer.ID, Start: m.Start, Energies: m.Energies}
		}
		rc, err := s.journalDecision(&dec)
		if err != nil {
			s.mu.Lock()
			s.ledgerErrs++
			s.mu.Unlock()
			return summary, fmt.Errorf("%w: %v", ErrLedger, err)
		}
		applied, failed := rc.apply(s.cfg.Store, s.cfg.Logger)
		summary.Decisions++
		summary.Members += applied
		summary.ApplyErrors += failed
		summary.AssignedKWh += dec.AssignedKWh()
	}
	summary.DurationSeconds = time.Since(began).Seconds()

	if err := s.journalRun(&summary); err != nil {
		s.mu.Lock()
		s.ledgerErrs++
		s.mu.Unlock()
		return summary, fmt.Errorf("%w: %v", ErrLedger, err)
	}

	s.mu.Lock()
	s.runs = run
	s.decisions += uint64(summary.Decisions)
	s.assignedKWh += summary.AssignedKWh
	s.applyErrs += uint64(summary.ApplyErrors)
	cp := summary
	s.lastRun = &cp
	s.history = append(s.history, summary)
	if len(s.history) > historyLimit {
		s.history = s.history[len(s.history)-historyLimit:]
	}
	hist := s.runSeconds
	s.mu.Unlock()
	if hist != nil {
		hist.Observe(summary.DurationSeconds)
	}

	s.cfg.Logger.Info("scheduling round complete",
		"run", run, "aggregates", summary.Aggregates, "decisions", summary.Decisions,
		"members", summary.Members, "assigned_kwh", summary.AssignedKWh,
		"skipped", summary.Skipped, "apply_errors", summary.ApplyErrors)
	return summary, nil
}

// RunPeriodically blocks, executing a round every interval until the
// context is cancelled. Errors are logged and the loop keeps going — a
// failed round leaves the store untouched and the next tick retries.
func (s *Service) RunPeriodically(ctx context.Context, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if _, err := s.RunOnce(); err != nil {
				s.cfg.Logger.Warn("scheduling round failed", "err", err)
			}
		}
	}
}

// Status is the service's point-in-time summary, served on GET /schedule.
type Status struct {
	// Runs is the number of completed rounds, including recovered ones.
	Runs uint64 `json:"runs"`
	// Decisions is the lifetime decision count.
	Decisions uint64 `json:"decisions"`
	// AssignedKWh is the lifetime scheduled energy.
	AssignedKWh float64 `json:"assigned_kwh"`
	// ApplyErrors and LedgerErrors are lifetime failure counters.
	ApplyErrors  uint64 `json:"apply_errors"`
	LedgerErrors uint64 `json:"ledger_errors"`
	// Resyncs counts lagged-subscription replay resyncs: how often the
	// bounded event queue overflowed and the aggregator was reset and replayed.
	Resyncs uint64 `json:"resyncs"`
	// Aggregator snapshots the incremental aggregator.
	Aggregator agg.IncrementalStats `json:"aggregator"`
	// LastRun is the most recent round, nil before the first.
	LastRun *RunSummary `json:"last_run,omitempty"`
	// History lists the last 64 rounds, oldest first.
	History []RunSummary `json:"history,omitempty"`
	// Recovered reports what ledger replay restored at start.
	Recovered RecoveryInfo `json:"recovered"`
}

// Status drains pending events and snapshots the service counters.
func (s *Service) Status() Status {
	s.runMu.Lock()
	s.events.Drain()
	aggStats := s.inc.Stats()
	s.runMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Runs:         s.runs,
		Decisions:    s.decisions,
		AssignedKWh:  s.assignedKWh,
		ApplyErrors:  s.applyErrs,
		LedgerErrors: s.ledgerErrs,
		Resyncs:      s.events.Resyncs(),
		Aggregator:   aggStats,
		Recovered:    s.recovered,
	}
	if s.lastRun != nil {
		cp := *s.lastRun
		st.LastRun = &cp
	}
	st.History = append([]RunSummary(nil), s.history...)
	return st
}

// counters returns lifetime counters for metric callbacks without
// draining the event stream (metric scrapes must stay cheap).
func (s *Service) counters() (runs, decisions, applyErrs, ledgerErrs, dropped uint64, assignedKWh float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs, s.decisions, s.applyErrs, s.ledgerErrs, s.dropped, s.assignedKWh
}
