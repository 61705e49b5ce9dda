package sched

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/wal"
)

// Ledger record kinds. Each scheduling round journals one Decision record
// per scheduled aggregate (write-ahead: before any member assignment is
// applied to the store) and one RunSummary record after the round. The
// ledger is the scheduler's durable history: on restart the service
// replays it to restore run/decision counters and the recent-run window,
// while the offers' assignment state recovers independently from the
// market store's own WAL.
const (
	recordDecision = "decision"
	recordRun      = "run"
)

// MemberAssignment is one member offer's share of a scheduled aggregate,
// as journaled in a Decision — self-contained, so the ledger can be
// audited without reconstructing the aggregate.
type MemberAssignment struct {
	// ID is the member offer's ID.
	ID string `json:"id"`
	// Start is the member's assigned start time.
	Start time.Time `json:"start"`
	// Energies is the member's assigned per-slice energy vector, in kWh.
	Energies []float64 `json:"energies_kwh"`
}

// Decision is one journaled scheduling decision: the assignment of one
// aggregate, already disaggregated into per-member assignments.
type Decision struct {
	// Run is the scheduling round that took the decision.
	Run uint64 `json:"run"`
	// AggregateID names the aggregate the decision schedules.
	AggregateID string `json:"aggregate_id"`
	// At is the service-clock time the decision was taken.
	At time.Time `json:"at"`
	// Start is the aggregate's assigned start.
	Start time.Time `json:"start"`
	// Energies is the aggregate's assigned per-slice energy vector.
	Energies []float64 `json:"energies_kwh"`
	// Members are the disaggregated per-offer assignments.
	Members []MemberAssignment `json:"members"`
}

// AssignedKWh sums the decision's aggregate energy vector.
func (d *Decision) AssignedKWh() float64 {
	var total float64
	for _, e := range d.Energies {
		total += e
	}
	return total
}

// RunSummary is the journaled outcome of one scheduling round.
type RunSummary struct {
	// Run numbers the round, monotonically across restarts.
	Run uint64 `json:"run"`
	// At is the service-clock time the round started.
	At time.Time `json:"at"`
	// HorizonStart is the first interval of the scheduling horizon.
	HorizonStart time.Time `json:"horizon_start"`
	// Aggregates is the number of aggregates offered to the scheduler.
	Aggregates int `json:"aggregates"`
	// Decisions is the number of aggregates that received a schedule.
	Decisions int `json:"decisions"`
	// Members is the number of member offers covered by the decisions.
	Members int `json:"members"`
	// AssignedKWh is the total energy scheduled this round.
	AssignedKWh float64 `json:"assigned_kwh"`
	// Skipped is the number of aggregates the scheduler could not place
	// inside the horizon.
	Skipped int `json:"skipped"`
	// ApplyErrors counts member assignments the store rejected (offer
	// already assigned or expired between drain and apply).
	ApplyErrors int `json:"apply_errors"`
	// Imbalance quantifies how well the scheduled demand tracks supply.
	Imbalance Metrics `json:"imbalance"`
	// DurationSeconds is the round's wall-clock duration.
	DurationSeconds float64 `json:"duration_seconds"`
}

// ledgerRecord is the WAL payload envelope: exactly one of the pointers is
// set, selected by Kind.
type ledgerRecord struct {
	Kind     string      `json:"kind"`
	Decision *Decision   `json:"decision,omitempty"`
	Run      *RunSummary `json:"run,omitempty"`
}

// appendRecord journals one record through the ledger, honouring the
// write-ahead contract: callers act on the record only on nil return.
func appendRecord(ledger *wal.Log, rec ledgerRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sched: encode ledger record: %w", err)
	}
	if _, err := ledger.Append(payload); err != nil {
		return fmt.Errorf("sched: append ledger record: %w", err)
	}
	return nil
}

// replayState is what ledger replay recovers.
type replayState struct {
	runs        uint64
	decisions   uint64
	assignedKWh float64
	history     []RunSummary
	lastRun     *RunSummary
}

// replayLedger folds every valid ledger record into counters and the
// recent-run window. Undecodable payloads abort the replay: the WAL layer
// already discards torn tails, so a record that frames correctly but does
// not parse means corruption, not a crash.
func replayLedger(ledger *wal.Log) (replayState, error) {
	var st replayState
	err := ledger.ReplayFrom(0, func(lsn uint64, payload []byte) error {
		var rec ledgerRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("sched: ledger record %d: %w", lsn, err)
		}
		switch rec.Kind {
		case recordDecision:
			if rec.Decision == nil {
				return fmt.Errorf("sched: ledger record %d: decision without body", lsn)
			}
			st.decisions++
			st.assignedKWh += rec.Decision.AssignedKWh()
			if rec.Decision.Run > st.runs {
				st.runs = rec.Decision.Run
			}
		case recordRun:
			if rec.Run == nil {
				return fmt.Errorf("sched: ledger record %d: run without body", lsn)
			}
			if rec.Run.Run > st.runs {
				st.runs = rec.Run.Run
			}
			r := *rec.Run
			st.lastRun = &r
			st.history = append(st.history, r)
			if len(st.history) > historyLimit {
				st.history = st.history[len(st.history)-historyLimit:]
			}
		default:
			return fmt.Errorf("sched: ledger record %d: unknown kind %q", lsn, rec.Kind)
		}
		return nil
	})
	return st, err
}
