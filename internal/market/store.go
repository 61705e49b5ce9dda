// Package market implements the flex-offer collection infrastructure of the
// MIRABEL prototype (the paper's reference [3]: "near real-time flex-offer
// collection"). Offers move through the lifecycle their timestamps encode —
// submitted while collection is open, accepted or rejected before their
// acceptance deadline, assigned a concrete start before their assignment
// deadline — and the store enforces every transition. A small HTTP API
// (http.go) and client (client.go) expose the store over the network.
//
// The store is partitioned into shards keyed by an FNV-1a hash of the
// offer ID (shard.go): each shard carries its own lock, owner index,
// deadline heap and — when journaled — its own write-ahead log stream, so
// point operations on different shards never contend.
package market

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/flexoffer"
)

// State is the lifecycle state of a collected offer.
type State int

const (
	// Offered: collected, awaiting the market's accept/reject decision.
	Offered State = iota
	// Accepted: the market committed to schedule the offer.
	Accepted
	// Rejected: declined; terminal.
	Rejected
	// Assigned: a concrete start time and energies are fixed; terminal
	// for the market's purposes.
	Assigned
	// Expired: a deadline lapsed before the required transition; terminal.
	Expired
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Offered:
		return "offered"
	case Accepted:
		return "accepted"
	case Rejected:
		return "rejected"
	case Assigned:
		return "assigned"
	case Expired:
		return "expired"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the state as its textual name — the same form the
// HTTP API's ?state= filter and lifecycle responses use, so the wire
// contract (docs/API.md) never exposes internal enum values.
func (s State) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the textual state name, and the numeric form for
// compatibility with payloads recorded before states marshalled as text.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err == nil {
		st, err := ParseState(name)
		if err != nil {
			return err
		}
		*s = st
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("%w: state must be a name or number", ErrBadRequest)
	}
	if n < int(Offered) || n > int(Expired) {
		return fmt.Errorf("%w: state %d out of range", ErrBadRequest, n)
	}
	*s = State(n)
	return nil
}

// ParseState parses the textual state names used by the HTTP API.
func ParseState(s string) (State, error) {
	for st := Offered; st <= Expired; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown state %q", ErrBadRequest, s)
}

// Common errors.
var (
	ErrNotFound   = errors.New("market: offer not found")
	ErrDuplicate  = errors.New("market: duplicate offer id")
	ErrDeadline   = errors.New("market: lifecycle deadline passed")
	ErrTransition = errors.New("market: invalid state transition")
	ErrBadRequest = errors.New("market: bad request")
	// ErrJournal reports that a state transition could not be made durable:
	// the write-ahead journal refused the event, so the store did not apply
	// the transition. The in-memory state is unchanged and still consistent
	// with what the journal holds.
	ErrJournal = errors.New("market: journal write failed")
)

// Record is one collected offer with its lifecycle state.
type Record struct {
	Offer       *flexoffer.FlexOffer  `json:"offer"`
	State       State                 `json:"state"`
	SubmittedAt time.Time             `json:"submitted_at"`
	DecidedAt   time.Time             `json:"decided_at,omitempty"`
	Assignment  *flexoffer.Assignment `json:"assignment,omitempty"`
}

// recordWireJSON mirrors Record's wire form for decoding. The assignment
// carries start and energies only: the full Assignment embeds its offer,
// which in a record sits right next to it, so emitting it again would
// double every assigned record on the wire. UnmarshalJSON reattaches the
// record's offer, so the round trip loses nothing (the WAL's assign
// events normalise the same way).
type recordWireJSON struct {
	Offer       *flexoffer.FlexOffer `json:"offer"`
	State       State                `json:"state"`
	SubmittedAt time.Time            `json:"submitted_at"`
	DecidedAt   time.Time            `json:"decided_at"`
	Assignment  *struct {
		Start    time.Time `json:"start"`
		Energies []float64 `json:"energies_kwh"`
	} `json:"assignment"`
}

// MarshalJSON emits the record's wire form (docs/API.md): the offer, its
// lifecycle fields, and — once assigned — the assignment as start plus
// energies, without repeating the offer. The bytes are assembled by hand
// (appendJSON) and equal the default encoding of that shape.
func (r Record) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 1280))
}

// appendJSON appends the record's wire form to buf; Page.MarshalJSON
// stitches whole pages into one buffer through it, and snapshots and
// GET /offers/{id} encode through MarshalJSON. The offer goes through
// FlexOffer.AppendJSON, so a record allocates nothing when buf has room;
// TestPageMarshalAllocations holds a whole page to its one buffer.
func (r Record) appendJSON(buf []byte) ([]byte, error) {
	var err error
	buf = append(buf, `{"offer":`...)
	if buf, err = r.Offer.AppendJSON(buf); err != nil {
		return nil, err
	}
	buf = append(buf, `,"state":"`...)
	buf = append(buf, r.State.String()...)
	buf = append(buf, `","submitted_at":`...)
	if buf, err = flexoffer.AppendJSONTime(buf, r.SubmittedAt); err != nil {
		return nil, err
	}
	// The decided_at tag says omitempty, but a time.Time is a struct so
	// the default encoder always emitted it — keep that shape.
	buf = append(buf, `,"decided_at":`...)
	if buf, err = flexoffer.AppendJSONTime(buf, r.DecidedAt); err != nil {
		return nil, err
	}
	if a := r.Assignment; a != nil {
		buf = append(buf, `,"assignment":{"start":`...)
		if buf, err = flexoffer.AppendJSONTime(buf, a.Start); err != nil {
			return nil, err
		}
		buf = append(buf, `,"energies_kwh":`...)
		if a.Energies == nil {
			buf = append(buf, "null"...)
		} else {
			buf = append(buf, '[')
			for i, e := range a.Energies {
				if i > 0 {
					buf = append(buf, ',')
				}
				if buf, err = flexoffer.AppendJSONFloat(buf, e); err != nil {
					return nil, err
				}
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON decodes the wire form MarshalJSON produces, reattaching
// the record's offer to its assignment, so a decode/encode round trip
// (snapshot restore, client relay) is byte-identical.
func (r *Record) UnmarshalJSON(data []byte) error {
	var w recordWireJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Record{Offer: w.Offer, State: w.State, SubmittedAt: w.SubmittedAt, DecidedAt: w.DecidedAt}
	if w.Assignment != nil {
		r.Assignment = &flexoffer.Assignment{Offer: w.Offer, Start: w.Assignment.Start, Energies: w.Assignment.Energies}
	}
	return nil
}

// Store is a concurrent-safe flex-offer store, partitioned into shards by
// offer-ID hash. By itself it is purely in-memory; OpenJournaled
// (journal.go) attaches one write-ahead journal stream per shard so every
// lifecycle transition is made durable before it is acknowledged.
//
// Listings are ordered shard-major: every record of shard 0 in its
// submission order, then shard 1, and so on. A single-shard store
// (NewStore) therefore lists in global submission order, matching the
// pre-sharding contract.
type Store struct {
	shards []*shard         // immutable after NewShardedStore
	clock  func() time.Time // immutable after NewShardedStore
}

// NewStore builds a single-shard store — global submission order, one
// lock — which is exactly the pre-sharding behaviour. clock defaults to
// time.Now when nil; tests and simulations inject their own.
func NewStore(clock func() time.Time) *Store {
	return NewShardedStore(1, clock)
}

// NewShardedStore builds a store partitioned into n shards (clamped to at
// least 1). Offers are routed to shards by an FNV-1a hash of their ID, so
// the mapping is stable across processes and restarts. clock defaults to
// time.Now when nil.
func NewShardedStore(n int, clock func() time.Time) *Store {
	if n < 1 {
		n = 1
	}
	if clock == nil {
		clock = time.Now
	}
	s := &Store{shards: make([]*shard, n), clock: clock}
	for i := range s.shards {
		s.shards[i] = newShard(i)
	}
	return s
}

// ShardCount reports the number of shards the store is partitioned into.
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardIndex reports which shard the given offer ID routes to: the
// FNV-1a 32-bit hash of the ID modulo the shard count.
func (s *Store) ShardIndex(id string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(len(s.shards)))
}

// shardFor returns the shard the given offer ID lives in.
func (s *Store) shardFor(id string) *shard { return s.shards[s.ShardIndex(id)] }

// setJournal attaches fn as every shard's journal hook — the test seam
// behind journal-failure tests; OpenJournaled attaches per-shard hooks
// directly.
func (s *Store) setJournal(fn func(ev event) error) {
	for _, sh := range s.shards {
		sh.journal = fn
	}
}

// Submit collects a new offer. The offer must validate, carry a unique ID,
// and still be inside its acceptance window (when it declares one).
func (s *Store) Submit(f *flexoffer.FlexOffer) error {
	if f == nil {
		return fmt.Errorf("%w: nil offer", ErrBadRequest)
	}
	if err := f.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if f.ID == "" {
		return fmt.Errorf("%w: empty offer id", ErrBadRequest)
	}
	offer := f.Clone()
	raw := marshalOffer(offer)
	sh := s.shardFor(f.ID)
	w := sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.clock()
	if !f.AcceptanceTime.IsZero() && now.After(f.AcceptanceTime) {
		return fmt.Errorf("%w: acceptance deadline %v already passed", ErrDeadline, f.AcceptanceTime)
	}
	if _, dup := sh.records[f.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, f.ID)
	}
	rc, err := sh.journalLocked(w, event{Kind: evSubmit, At: now, Offers: flexoffer.Set{offer}, offersRaw: []json.RawMessage{raw}})
	if err != nil {
		return err
	}
	sh.insertLocked(rc, &Record{Offer: offer, State: Offered, SubmittedAt: now})
	return nil
}

// marshalOffer encodes an offer for its submit event. Submit and
// SubmitBatch call it before they take the shard lock; the bytes live
// until the event is journaled, and the record keeps none. The buffer is
// sized for an offer's fields plus its slices, so the encoding rarely
// regrows it. An offer that does not encode (an infinite energy bound)
// yields nil, which leaves event.encode to encode the event whole and
// fail as it always has.
func marshalOffer(f *flexoffer.FlexOffer) json.RawMessage {
	raw, err := f.AppendJSON(make([]byte, 0, 384+128*len(f.Profile)))
	if err != nil {
		return nil
	}
	return raw
}

// BatchFailure attributes one rejected offer within a SubmitBatch call to
// its position in the submitted set, so retry paths can resubmit exactly
// the failures.
type BatchFailure struct {
	// Index is the offer's position in the submitted set.
	Index int
	// ID is the rejected offer's ID ("" for a nil offer).
	ID string
	// Err is why the offer was rejected; never nil.
	Err error
}

// BatchResult reports a SubmitBatch outcome: how many offers the store
// accepted and exactly which ones it did not.
type BatchResult struct {
	// Submitted is the size of the submitted set.
	Submitted int
	// Accepted is the number of offers collected into the store.
	Accepted int
	// Failures lists the rejected offers in submission order; empty when
	// the whole batch was accepted.
	Failures []BatchFailure
}

// Rejected reports the number of failed offers.
func (r BatchResult) Rejected() int { return len(r.Failures) }

// FirstErr returns the first failure's error, or nil when the whole batch
// was accepted.
func (r BatchResult) FirstErr() error {
	if len(r.Failures) == 0 {
		return nil
	}
	return r.Failures[0].Err
}

// FailedOffers maps the failures back onto the submitted set: the subset
// of offers that did not land, in submission order. offers must be the
// same set that was passed to SubmitBatch.
func (r BatchResult) FailedOffers(offers flexoffer.Set) flexoffer.Set {
	if len(r.Failures) == 0 {
		return nil
	}
	failed := make(flexoffer.Set, 0, len(r.Failures))
	for _, f := range r.Failures {
		if f.Index >= 0 && f.Index < len(offers) {
			failed = append(failed, offers[f.Index])
		}
	}
	return failed
}

// SubmitBatch collects many offers with one lock acquisition per touched
// shard — the bulk ingest path used by the extraction pipeline.
// Validation and each offer's JSON encoding run outside the locks;
// insertion is atomic per offer, not per batch: each offer is accepted or
// rejected independently, and the result names every failure by index so
// callers can resubmit only what did not land. On a journaled store each shard's accepted subset is
// journaled as one event in that shard's WAL stream; a journal failure
// fails that shard's subset without touching the others.
func (s *Store) SubmitBatch(offers flexoffer.Set) BatchResult {
	res := BatchResult{Submitted: len(offers)}
	fail := func(i int, id string, err error) {
		res.Failures = append(res.Failures, BatchFailure{Index: i, ID: id, Err: err})
	}
	type pending struct {
		i   int
		f   *flexoffer.FlexOffer // the validated clone
		raw json.RawMessage
	}
	// Validate everything and group the survivors by shard, preserving
	// submission order within each group. Duplicates *within* the batch
	// are decided here, before any lock, so the outcome does not depend
	// on shard processing order.
	byShard := make(map[int][]pending)
	seen := make(map[string]bool, len(offers))
	for i, f := range offers {
		switch {
		case f == nil:
			fail(i, "", fmt.Errorf("%w: nil offer", ErrBadRequest))
		case f.ID == "":
			fail(i, "", fmt.Errorf("%w: empty offer id", ErrBadRequest))
		default:
			if err := f.Validate(); err != nil {
				fail(i, f.ID, fmt.Errorf("%w: %v", ErrBadRequest, err))
				continue
			}
			if seen[f.ID] {
				fail(i, f.ID, fmt.Errorf("%w: %s", ErrDuplicate, f.ID))
				continue
			}
			seen[f.ID] = true
			clone := f.Clone()
			k := s.ShardIndex(f.ID)
			byShard[k] = append(byShard[k], pending{i, clone, marshalOffer(clone)})
		}
	}
	// Process shards in ascending order so lock acquisition order is
	// deterministic (only one shard is held at a time regardless).
	keys := make([]int, 0, len(byShard))
	for k := range byShard {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		group := byShard[k]
		sh := s.shards[k]
		w := sh.mu.Lock()
		now := s.clock()
		// Decide which offers will land before mutating anything, so the
		// journal records exactly the accepted subset ahead of the insert.
		accepted := make([]pending, 0, len(group))
		batch := make(flexoffer.Set, 0, len(group))
		raws := make([]json.RawMessage, 0, len(group))
		for _, p := range group {
			f := p.f
			if !f.AcceptanceTime.IsZero() && now.After(f.AcceptanceTime) {
				fail(p.i, f.ID, fmt.Errorf("%w: acceptance deadline %v already passed", ErrDeadline, f.AcceptanceTime))
				continue
			}
			if _, dup := sh.records[f.ID]; dup {
				fail(p.i, f.ID, fmt.Errorf("%w: %s", ErrDuplicate, f.ID))
				continue
			}
			accepted = append(accepted, p)
			batch = append(batch, f)
			raws = append(raws, p.raw)
		}
		if len(batch) == 0 {
			sh.mu.Unlock()
			continue
		}
		rc, err := sh.journalLocked(w, event{Kind: evSubmit, At: now, Offers: batch, offersRaw: raws})
		if err != nil {
			// Nothing was applied to this shard; surface the journal
			// failure per offer so retry paths resubmit the subset.
			for _, p := range accepted {
				fail(p.i, p.f.ID, err)
			}
			sh.mu.Unlock()
			continue
		}
		for _, p := range accepted {
			sh.insertLocked(rc, &Record{Offer: p.f, State: Offered, SubmittedAt: now})
			res.Accepted++
		}
		sh.mu.Unlock()
	}
	// Failures accumulate in two passes (validation, then insertion), so
	// restore submission order for callers that walk them.
	sort.Slice(res.Failures, func(i, j int) bool { return res.Failures[i].Index < res.Failures[j].Index })
	return res
}

// Accept moves an offered flex-offer to Accepted, enforcing the acceptance
// deadline.
func (s *Store) Accept(id string) error {
	return s.decide(id, Accepted)
}

// Reject moves an offered flex-offer to Rejected.
func (s *Store) Reject(id string) error {
	return s.decide(id, Rejected)
}

func (s *Store) decide(id string, to State) error {
	sh := s.shardFor(id)
	w := sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.records[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if r.State != Offered {
		return fmt.Errorf("%w: %s is %s, not offered", ErrTransition, id, r.State)
	}
	now := s.clock()
	if to == Accepted && !r.Offer.AcceptanceTime.IsZero() && now.After(r.Offer.AcceptanceTime) {
		rc, err := sh.journalLocked(w, event{Kind: evDecide, At: now, ID: id, To: Expired})
		if err != nil {
			return err
		}
		sh.transitionLocked(rc, r, Expired, now)
		return fmt.Errorf("%w: acceptance deadline %v passed", ErrDeadline, r.Offer.AcceptanceTime)
	}
	rc, err := sh.journalLocked(w, event{Kind: evDecide, At: now, ID: id, To: to})
	if err != nil {
		return err
	}
	sh.transitionLocked(rc, r, to, now)
	return nil
}

// Assign fixes the start time and per-slice energies of an accepted offer,
// enforcing the assignment deadline and feasibility.
func (s *Store) Assign(id string, start time.Time, energies []float64) (*flexoffer.Assignment, error) {
	sh := s.shardFor(id)
	w := sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.records[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if r.State != Accepted {
		return nil, fmt.Errorf("%w: %s is %s, not accepted", ErrTransition, id, r.State)
	}
	now := s.clock()
	if !r.Offer.AssignmentTime.IsZero() && now.After(r.Offer.AssignmentTime) {
		rc, err := sh.journalLocked(w, event{Kind: evDecide, At: now, ID: id, To: Expired})
		if err != nil {
			return nil, err
		}
		sh.transitionLocked(rc, r, Expired, now)
		return nil, fmt.Errorf("%w: assignment deadline %v passed", ErrDeadline, r.Offer.AssignmentTime)
	}
	asg, err := r.Offer.Assign(start, energies)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	rc, err := sh.journalLocked(w, event{Kind: evAssign, At: now, ID: id, Start: start, Energies: energies})
	if err != nil {
		return nil, err
	}
	// The assignment is attached before the transition so the published
	// EventAssigned carries the schedule.
	r.Assignment = asg
	sh.transitionLocked(rc, r, Assigned, now)
	return asg, nil
}

// Get returns a copy of the record for id.
func (s *Store) Get(id string) (Record, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.records[id]
	if !ok {
		return Record{}, false
	}
	return *r, true
}

// List returns copies of the records in shard-major submission order
// (global submission order on a single-shard store), optionally filtered
// to the given states. It walks every shard's submission order, the walk
// Page takes; for bounded reads at scale, use Page. A full-store listing
// copies every matching record into one sized slice; TestListAllocations
// holds each call to that one allocation.
func (s *Store) List(states ...State) []Record {
	want := stateFilter(states)
	// Pre-size from the per-shard state counters (O(shards)) so the walk
	// below never regrows the result. Records may transition between the
	// two passes, so the sum is a hint, not a bound.
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for st, ok := range want {
			if ok {
				n += sh.counts[st]
			}
		}
		sh.mu.RUnlock()
	}
	out := make([]Record, 0, n)
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.walkLocked("", want, 0, math.MaxInt, &out)
		sh.mu.RUnlock()
	}
	return out
}

// ExpireOverdue sweeps the store: offered records past their acceptance
// deadline and accepted records past their assignment deadline become
// Expired. The number of expired records is returned. The sweep pops the
// per-shard deadline heaps instead of scanning records, so its cost is
// proportional to the number of due deadlines, not the store size. On a
// journaled store each shard's sweep is durable before it applies; a
// journal failure rolls that shard's heap back, leaves its records
// untouched and returns ErrJournal (shards already swept stay swept —
// their expiries were acknowledged durably).
func (s *Store) ExpireOverdue() (int, error) {
	total := 0
	for _, sh := range s.shards {
		w := sh.mu.Lock()
		now := s.clock()
		due := sh.overdueLocked(w, now)
		if len(due) == 0 {
			sh.mu.Unlock()
			continue
		}
		ids := make([]string, len(due))
		for i, e := range due {
			ids[i] = e.id
		}
		rc, err := sh.journalLocked(w, event{Kind: evExpire, At: now, IDs: ids})
		if err != nil {
			sh.rollbackLocked(w, due)
			sh.mu.Unlock()
			return total, err
		}
		for _, id := range ids {
			sh.transitionLocked(rc, sh.records[id], Expired, now)
		}
		total += len(ids)
		sh.mu.Unlock()
	}
	return total, nil
}

// sweepExaminedTotal reports how many expiry-heap entries every sweep so
// far has popped (due or stale) — the cost measure the sweep regression
// test pins against the expired count.
func (s *Store) sweepExaminedTotal() uint64 {
	var n uint64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.sweepExamined
		sh.mu.RUnlock()
	}
	return n
}

// Counts summarises the store by state.
type Counts struct {
	Offered  int `json:"offered"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Assigned int `json:"assigned"`
	Expired  int `json:"expired"`
	// TotalFlexibleEnergy is the summed average energy of non-terminal
	// (offered + accepted) offers, in kWh.
	TotalFlexibleEnergy float64 `json:"total_flexible_energy_kwh"`
}

// Stats reports the store summary from the shards' incrementally
// maintained counters — O(shards), never a record scan.
func (s *Store) Stats() Counts {
	var c Counts
	for _, sh := range s.shards {
		sh.mu.RLock()
		c.Offered += sh.counts[Offered]
		c.Accepted += sh.counts[Accepted]
		c.Rejected += sh.counts[Rejected]
		c.Assigned += sh.counts[Assigned]
		c.Expired += sh.counts[Expired]
		c.TotalFlexibleEnergy += sh.energy
		sh.mu.RUnlock()
	}
	return c
}

// Contention reports every shard's lock-contention counters and resident
// record count, in shard order.
func (s *Store) Contention() []ShardContention {
	out := make([]ShardContention, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		offers := len(sh.records)
		sh.mu.RUnlock()
		out[i] = ShardContention{
			Shard:           i,
			LockWaitSeconds: float64(sh.mu.waitNanos.Load()) / 1e9,
			LockHoldSeconds: float64(sh.mu.holdNanos.Load()) / 1e9,
			QueueDepth:      sh.mu.waiters.Load(),
			Offers:          offers,
		}
	}
	return out
}

// AcceptedOffers returns the accepted offers as a Set (for the scheduler),
// sorted by earliest start.
func (s *Store) AcceptedOffers() flexoffer.Set {
	accepted := s.List(Accepted)
	set := make(flexoffer.Set, 0, len(accepted))
	for _, r := range accepted {
		set = append(set, r.Offer)
	}
	sort.SliceStable(set, func(i, j int) bool {
		return set[i].EarliestStart.Before(set[j].EarliestStart)
	})
	return set
}
