package market

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// numStates is the number of lifecycle states, sizing the per-shard
// per-state bookkeeping arrays.
const numStates = int(Expired) + 1

// lockMeter is a sync.RWMutex with contention accounting: writer and
// reader acquisitions count their wait time, the current queue depth is
// tracked while callers block, and writer hold time is measured between
// Lock and Unlock. The counters feed the market_shard_* metric families
// that mirabeld exports on /metrics (metrics.go). The meter reads the wall
// clock directly — lock timings are observability, not replayable
// lifecycle state, so the injected store clock does not apply.
type lockMeter struct {
	mu sync.RWMutex

	waiters   atomic.Int64  // goroutines currently blocked in Lock/RLock
	waitNanos atomic.Uint64 // cumulative time spent waiting for the lock
	holdNanos atomic.Uint64 // cumulative time the write lock was held
	heldAt    time.Time     // guarded by mu: when the write lock was taken
}

// writeLocked is the receipt for holding a shard's write lock. Only
// lockMeter.Lock returns one (RLock returns nothing), and every shard
// method that mutates takes one, directly or through journaled, so
// mutating under a read lock does not compile.
type writeLocked struct{}

// journaled is the receipt for a successful write-ahead append. Only
// journalLocked returns one, and replayed mints one for events read back
// from the journal. insertLocked, transitionLocked and publishLocked take
// it, so mutating journaled state without appending first does not
// compile. It has no fields yet: group commit can add the record's LSN
// and a commit wait here without changing those signatures.
type journaled struct{}

// replayed is the receipt for recovery: an event read back from the
// journal was appended before it was first applied, so applying it again
// needs no second append. Replay still holds the write lock.
func replayed(writeLocked) journaled { return journaled{} }

// Lock acquires the write lock, accounting wait time and queue depth.
func (m *lockMeter) Lock() writeLocked {
	m.waiters.Add(1)
	start := time.Now()
	m.mu.Lock()
	now := time.Now()
	m.waiters.Add(-1)
	m.waitNanos.Add(uint64(now.Sub(start)))
	m.heldAt = now
	return writeLocked{}
}

// Unlock releases the write lock, accounting the hold time.
func (m *lockMeter) Unlock() {
	//lint:ignore mutexguard Unlock runs with the write lock held by contract; it is the release half of Lock
	m.holdNanos.Add(uint64(time.Since(m.heldAt)))
	m.mu.Unlock()
}

// RLock acquires the read lock, accounting wait time and queue depth.
// Reader hold time is not tracked: readers overlap, so a cumulative sum
// would not mean anything.
func (m *lockMeter) RLock() {
	m.waiters.Add(1)
	start := time.Now()
	m.mu.RLock()
	m.waitNanos.Add(uint64(time.Since(start)))
	m.waiters.Add(-1)
}

// RUnlock releases the read lock.
func (m *lockMeter) RUnlock() { m.mu.RUnlock() }

// ShardContention is one shard's point-in-time contention counters, as
// exported on /metrics.
type ShardContention struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// LockWaitSeconds is the cumulative time callers spent waiting for
	// the shard lock (readers and writers).
	LockWaitSeconds float64 `json:"lock_wait_seconds"`
	// LockHoldSeconds is the cumulative time the write lock was held.
	LockHoldSeconds float64 `json:"lock_hold_seconds"`
	// QueueDepth is the number of goroutines blocked on the lock right
	// now.
	QueueDepth int64 `json:"queue_depth"`
	// Offers is the number of records resident in the shard.
	Offers int `json:"offers"`
}

// expiryEntry schedules one deadline check: when `at` has passed and the
// record is still in `state`, the offer is overdue. Entries are never
// removed when a record moves on — they become stale and are discarded
// the next time they surface at the top of the heap (lazy deletion).
type expiryEntry struct {
	at    time.Time
	id    string
	state State
}

// expiryHeap is a min-heap of expiry entries ordered by deadline (ties
// broken by ID so sweep order is deterministic for a given store state).
type expiryHeap []expiryEntry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].id < h[j].id
}
func (h expiryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)   { *h = append(*h, x.(expiryEntry)) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
func (h expiryHeap) peek() expiryEntry { return h[0] }

// shard is one partition of the store: a records map plus the indexes
// that keep every read and sweep path proportional to its result size —
// per-state ID lists for filtered listings, incremental state counts and
// an energy sum for Stats, and a deadline min-heap for the sweeper.
type shard struct {
	mu lockMeter

	// idx is the shard's index within the store; immutable.
	idx int

	records map[string]*Record // guarded by mu
	// order is the shard-local submission order, append-only; listing
	// cursors index into it, so positions are stable forever.
	order []string // guarded by mu
	// byState[st] lists the IDs that entered state st, append-only with
	// lazy deletion: an entry whose record has moved on is skipped at
	// read time. A record enters each state at most once (the lifecycle
	// is a DAG), so no list ever holds duplicates.
	byState [numStates][]string // guarded by mu
	// counts is the live number of records per state.
	counts [numStates]int // guarded by mu
	// energy is the summed TotalAvgEnergy of non-terminal (offered +
	// accepted) records.
	energy float64 // guarded by mu
	// expiry schedules the shard's deadline checks for the sweeper.
	expiry expiryHeap // guarded by mu
	// sweepExamined counts expiry-heap entries the sweeper popped (due or
	// stale) — the regression guard that sweep cost tracks the expired
	// count, not the store size.
	sweepExamined uint64 // guarded by mu

	// subs are the event-stream subscriptions attached to this shard;
	// publishLocked (events.go) delivers every mutation to them and drops
	// the closed ones.
	subs []*subscription // guarded by mu
	// eventSeq numbers this shard's published live events.
	eventSeq uint64 // guarded by mu

	// journal, when non-nil, persists an event before the mutation it
	// describes is applied; a journal error aborts the transition with
	// ErrJournal. Attached by OpenJournaled before the store serves
	// requests; immutable afterwards. Always invoked with mu held, so
	// this shard's WAL stream order is its mutation order.
	journal func(ev event) error
}

func newShard(idx int) *shard {
	return &shard{idx: idx, records: make(map[string]*Record)}
}

// journalLocked persists ev through the shard's attached journal, if any,
// and returns the receipt the mutation ev describes needs. Callers apply
// that mutation only on nil error — the write-ahead contract: nothing is
// acknowledged that is not durable first.
func (sh *shard) journalLocked(_ writeLocked, ev event) (journaled, error) {
	if sh.journal != nil {
		if err := sh.journal(ev); err != nil {
			return journaled{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	return journaled{}, nil
}

// insertLocked adds a freshly submitted record and maintains every index.
// It keeps the record's offerRaw when the submitter encoded the offer, and
// encodes it otherwise (replay).
func (sh *shard) insertLocked(rc journaled, f *Record) {
	id := f.Offer.ID
	if f.offerRaw == nil {
		if b, err := json.Marshal(f.Offer); err == nil {
			f.offerRaw = b
		}
	}
	sh.records[id] = f
	sh.order = append(sh.order, id)
	sh.byState[Offered] = append(sh.byState[Offered], id)
	sh.counts[Offered]++
	sh.energy += f.Offer.TotalAvgEnergy()
	if !f.Offer.AcceptanceTime.IsZero() {
		heap.Push(&sh.expiry, expiryEntry{at: f.Offer.AcceptanceTime, id: id, state: Offered})
	}
	sh.publishLocked(rc, EventSubmitted, f, f.SubmittedAt)
}

// transitionLocked moves a record to state `to` at time `at` and
// maintains the per-state indexes, counts and the energy sum.
func (sh *shard) transitionLocked(rc journaled, r *Record, to State, at time.Time) {
	from := r.State
	sh.counts[from]--
	sh.counts[to]++
	sh.byState[to] = append(sh.byState[to], r.Offer.ID)
	if nonTerminal(from) && !nonTerminal(to) {
		sh.energy -= r.Offer.TotalAvgEnergy()
	}
	if to == Accepted && !r.Offer.AssignmentTime.IsZero() {
		heap.Push(&sh.expiry, expiryEntry{at: r.Offer.AssignmentTime, id: r.Offer.ID, state: Accepted})
	}
	r.State = to
	r.DecidedAt = at
	sh.publishLocked(rc, stateEventKind(to), r, at)
}

// nonTerminal reports whether records in st still count as flexible
// energy on offer.
func nonTerminal(st State) bool { return st == Offered || st == Accepted }

// overdueLocked pops every due expiry entry off the heap and returns the
// IDs whose records are genuinely overdue, in deterministic (deadline,
// ID) order. Stale entries — the record moved on since the entry was
// pushed — are discarded permanently; due entries are returned to the
// caller, who must either expire them or push them back (rollbackLocked)
// if the sweep cannot be made durable.
func (sh *shard) overdueLocked(_ writeLocked, now time.Time) []expiryEntry {
	var due []expiryEntry
	for len(sh.expiry) > 0 {
		e := sh.expiry.peek()
		if !now.After(e.at) {
			break
		}
		heap.Pop(&sh.expiry)
		sh.sweepExamined++
		r := sh.records[e.id]
		if r == nil || r.State != e.state {
			continue // stale: the record moved on before the deadline hit
		}
		due = append(due, e)
	}
	return due
}

// rollbackLocked pushes due entries back onto the heap after a failed
// (unjournalable) sweep, so no deadline check is ever lost.
func (sh *shard) rollbackLocked(_ writeLocked, due []expiryEntry) {
	for _, e := range due {
		heap.Push(&sh.expiry, e)
	}
}

// rebuildIndexesLocked derives every index (order stays as loaded) from
// the records map after a snapshot restore: per-state lists, counts,
// energy and the expiry heap.
func (sh *shard) rebuildIndexesLocked(_ writeLocked) {
	sh.byState = [numStates][]string{}
	sh.counts = [numStates]int{}
	sh.energy = 0
	sh.expiry = sh.expiry[:0]
	for _, id := range sh.order {
		r := sh.records[id]
		sh.counts[r.State]++
		sh.byState[r.State] = append(sh.byState[r.State], id)
		if nonTerminal(r.State) {
			sh.energy += r.Offer.TotalAvgEnergy()
		}
		switch r.State {
		case Offered:
			if !r.Offer.AcceptanceTime.IsZero() {
				sh.expiry = append(sh.expiry, expiryEntry{at: r.Offer.AcceptanceTime, id: id, state: Offered})
			}
		case Accepted:
			if !r.Offer.AssignmentTime.IsZero() {
				sh.expiry = append(sh.expiry, expiryEntry{at: r.Offer.AssignmentTime, id: id, state: Accepted})
			}
		}
	}
	heap.Init(&sh.expiry)
}
