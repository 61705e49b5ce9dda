package kpi

import (
	"fmt"
	"sync"

	"repro/internal/market"
	"repro/internal/obs"
)

// ServiceConfig configures a KPI Service.
type ServiceConfig struct {
	// Store is the market store whose event stream the service folds.
	// Required.
	Store *market.Store
	// Config fixes the KPI definitions' parameters; zero fields take the
	// package defaults.
	Config Config
	// EventHighWater bounds the event-stream queue; on overflow the
	// service rebuilds its tracker and resyncs from a fresh replay
	// (market.Follower) instead of growing memory without limit. 0 leaves
	// the queue unbounded.
	EventHighWater int
	// Logger receives service lifecycle logs; may be nil.
	Logger *obs.Logger
}

// Service runs the incremental KPI engine against a live market store. It
// follows the store's event stream, folding a replay of the store's
// contents shard by shard as it attaches, so the tracker starts from the
// store's current contents and then folds every later transition with no
// gap or duplicate in between. Like the scheduler service it owns no
// background goroutine: pending events are drained synchronously at the
// start of every read (Report, GlobalValues, metric scrapes, HTTP
// requests), which keeps the fold work proportional to the traffic that
// happened — an idle drain is a single mutex round-trip.
// When a bounded queue lags, the follower's resync rebuilds the tracker
// and re-books the retained dead-letter counts, converging on exactly the
// state a never-lagged fold would hold. All methods are safe for
// concurrent use.
type Service struct {
	// drainMu serialises drains so concurrently popped events cannot fold
	// out of per-shard order, and guards the tracker swap a resync
	// performs.
	drainMu     sync.Mutex
	tracker     *Tracker          // guarded by drainMu (rebuilt on resync)
	events      *market.Follower  // drained and closed under drainMu
	deadByOwner map[string]uint64 // guarded by drainMu: out-of-band dead letters, re-booked on resync
}

// NewService follows the store and returns a running service.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("kpi: nil store")
	}
	tracker, err := NewTracker(cfg.Config)
	if err != nil {
		return nil, err
	}
	s := &Service{tracker: tracker, deadByOwner: make(map[string]uint64)}
	// Follow folds the store's contents through s.apply before it
	// returns, so it runs under the lock every later drain holds.
	s.drainMu.Lock()
	s.events = cfg.Store.Follow(cfg.EventHighWater, s.apply, s.reset, cfg.Logger.With("consumer", "kpi"))
	folded := s.tracker.Events()
	s.drainMu.Unlock()
	cfg.Logger.Info("kpi service attached",
		"resolution", tracker.Resolution(), "replayed_events", folded,
		"event_high_water", cfg.EventHighWater)
	return s, nil
}

// Close detaches the service from the store's event stream.
func (s *Service) Close() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.events.Close()
}

// apply folds one event into the current tracker; it runs inside
// market.Store.Follow (from NewService) and s.events.Drain, under drainMu.
func (s *Service) apply(ev market.StoreEvent) { s.tracker.Apply(ev) }

// reset replaces the tracker with an empty one before a resync replays the
// store into it, re-booking the retained out-of-band dead-letter counts
// (integer adds, so re-feeding order is immaterial). It runs inside
// s.events.Drain, under drainMu.
func (s *Service) reset() {
	s.tracker = newTracker(s.tracker.cfg)
	for owner, n := range s.deadByOwner {
		s.tracker.ObserveDeadLetters(owner, n)
	}
}

// drain folds every pending store event into the tracker, serialised so
// two concurrent readers cannot interleave the per-shard event order, and
// returns the tracker the caller should read — which is a fresh one when
// a lagged queue forced a resync mid-drain.
func (s *Service) drain() *Tracker {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.events.Drain()
	return s.tracker
}

// Resyncs reports how often a lagged queue forced a replay resync.
func (s *Service) Resyncs() uint64 { return s.events.Resyncs() }

// Report drains pending events and snapshots the full KPI report.
func (s *Service) Report() Report {
	return s.drain().Report()
}

// GlobalValues drains pending events and snapshots the global scope only
// — the cheap read behind metric callbacks.
func (s *Service) GlobalValues() Values {
	return s.drain().GlobalValues()
}

// EventsFolded drains pending events and reports how many lifecycle
// events the current tracker has folded (replay and live). A resync
// restarts the count from the fresh bootstrap, exactly as a newly
// attached service would.
func (s *Service) EventsFolded() uint64 {
	return s.drain().Events()
}

// ObserveDeadLetters books n dead-lettered offers against owner. Dead
// letters never reach the store, so the pipeline-side accounting feeds
// them here out of band; the counts are retained so a lag resync can
// re-book them into the rebuilt tracker.
func (s *Service) ObserveDeadLetters(owner string, n uint64) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.deadByOwner[owner] += n
	s.tracker.ObserveDeadLetters(owner, n)
}
