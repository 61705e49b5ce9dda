package sched

import (
	"repro/internal/obs"
)

// ServiceMetrics holds the instruments a Service updates per round.
type ServiceMetrics struct {
	// RunSeconds observes each round's wall-clock duration.
	RunSeconds *obs.Histogram
}

// RegisterServiceMetrics registers the agg_* and sched_* metric families
// on reg, sourced from the service's counters; scrapes never drain the
// event stream, so they stay cheap under load. The agg_*_total counters
// are lifetime counts that a lag resync never resets.
func RegisterServiceMetrics(reg *obs.Registry, s *Service) *ServiceMetrics {
	reg.NewCounterFunc("agg_offers_joined_total", "Offers that joined an aggregate (accepted-offer events folded in; a lag resync re-joins the replayed members).", func() uint64 {
		return s.inc.Stats().Joined
	})
	reg.NewCounterFunc("agg_offers_left_total", "Offers that left an aggregate (rejected, expired or assigned; a lag resync's reset is not counted).", func() uint64 {
		return s.inc.Stats().Left
	})
	reg.NewCounterFunc("agg_rebuilds_total", "Aggregate bucket re-aggregations — the incremental work actually done.", func() uint64 {
		return s.inc.Stats().Rebuilds
	})
	reg.NewGaugeFunc("agg_groups", "Live aggregate grouping buckets.", func() float64 {
		return float64(s.inc.Stats().Groups)
	})
	reg.NewGaugeFunc("agg_members", "Offers currently aggregated.", func() float64 {
		return float64(s.inc.Stats().Members)
	})
	reg.NewCounterFunc("sched_runs_total", "Completed scheduling rounds, including rounds recovered from the ledger.", func() uint64 {
		runs, _, _, _, _, _ := s.counters()
		return runs
	})
	reg.NewCounterFunc("sched_decisions_total", "Journaled scheduling decisions (one per scheduled aggregate).", func() uint64 {
		_, decisions, _, _, _, _ := s.counters()
		return decisions
	})
	reg.NewCounterFunc("sched_apply_errors_total", "Member assignments the store rejected after the decision was journaled.", func() uint64 {
		_, _, applyErrs, _, _, _ := s.counters()
		return applyErrs
	})
	reg.NewCounterFunc("sched_ledger_errors_total", "Scheduling rounds aborted by a ledger append failure.", func() uint64 {
		_, _, _, ledgerErrs, _, _ := s.counters()
		return ledgerErrs
	})
	reg.NewCounterFunc("sched_events_dropped_total", "Store events that failed to fold into the aggregator.", func() uint64 {
		_, _, _, _, dropped, _ := s.counters()
		return dropped
	})
	reg.NewCounterFunc("sched_resyncs_total", "Lagged-subscription replay resyncs: bounded event-queue overflows recovered by resetting the aggregator and replaying the store.", func() uint64 {
		return s.events.Resyncs()
	})
	reg.NewGaugeFunc("sched_assigned_kwh_total", "Total energy scheduled across all rounds, in kWh.", func() float64 {
		_, _, _, _, _, kwh := s.counters()
		return kwh
	})
	m := &ServiceMetrics{
		RunSeconds: reg.NewHistogram("sched_run_seconds", "Scheduling round duration.", obs.DefBuckets),
	}
	s.mu.Lock()
	s.runSeconds = m.RunSeconds
	s.mu.Unlock()
	return m
}
