package market

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/obs"
)

// EventKind names one lifecycle transition published on the store's event
// stream.
type EventKind string

const (
	// EventSubmitted: an offer entered the store (Submit or SubmitBatch).
	EventSubmitted EventKind = "submitted"
	// EventAccepted: an offered flex-offer was accepted.
	EventAccepted EventKind = "accepted"
	// EventRejected: an offered flex-offer was rejected.
	EventRejected EventKind = "rejected"
	// EventAssigned: an accepted offer received a concrete schedule.
	EventAssigned EventKind = "assigned"
	// EventExpired: a lifecycle deadline lapsed (a sweep, or the lazy
	// expiry observed during accept/assign).
	EventExpired EventKind = "expired"
)

// stateEventKind maps a lifecycle state onto the event kind a record in
// that state implies: the kind a transition into the state publishes, and
// the kind of the record's replay event (Record.ReplayEvent).
func stateEventKind(st State) EventKind {
	switch st {
	case Accepted:
		return EventAccepted
	case Rejected:
		return EventRejected
	case Assigned:
		return EventAssigned
	case Expired:
		return EventExpired
	default:
		return EventSubmitted
	}
}

// StoreEvent is one store lifecycle transition as delivered to a
// Follower. Events from one shard arrive in exactly that shard's
// mutation order with monotonically increasing Seq; events from different
// shards interleave arbitrarily (the shards are independent, so there is no
// cross-shard order to preserve). The Offer pointer is shared with the
// store and must be treated as read-only — the store never mutates an
// offer after insert, and neither may a consumer.
type StoreEvent struct {
	// Kind is the transition that produced the event.
	Kind EventKind
	// Shard is the index of the shard the offer lives in.
	Shard int
	// Seq numbers live events within their shard: monotonically
	// increasing, and contiguous from the follower's first delivered
	// live event of that shard. Replay events carry Seq 0.
	Seq uint64
	// Replay marks a synthetic bootstrap event (Follow, or a resync): it
	// describes a record's state at subscription time, not a transition
	// that happened while subscribed.
	Replay bool
	// At is the store-clock time of the transition (for replay events:
	// SubmittedAt for offered records, DecidedAt otherwise).
	At time.Time
	// Offer is the affected offer; read-only, shared with the store.
	Offer *flexoffer.FlexOffer
	// Start and Energies carry the schedule of an EventAssigned.
	Start time.Time
	// Energies is the assigned per-slice energy vector of an EventAssigned.
	Energies []float64
}

// subscription is one consumer's ordered queue of live store events, the
// mechanism under Follower. Enqueueing never blocks, so a slow consumer
// delays only itself — never a store mutation, which publishes while
// holding a shard's write lock. A positive highWater bounds the queue: a
// live event that would grow it past the mark is refused, the
// subscription latches lagged, publishers detach it, and the queued
// prefix stays readable. The replay bootstrap never enters the queue
// (attach folds it), so the mark counts live events only.
type subscription struct {
	mu        sync.Mutex
	queue     []StoreEvent // guarded by mu
	closed    bool         // guarded by mu
	lagged    bool         // guarded by mu: latched when the high-water mark overflowed
	dropped   uint64       // guarded by mu: live events refused since the latch
	highWater int          // immutable after subscribe; 0 = unbounded
}

// TryNext returns the next pending event without blocking; ok is false
// when the queue is currently empty (closed or not).
func (sub *subscription) TryNext() (ev StoreEvent, ok bool) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.queue) == 0 {
		return StoreEvent{}, false
	}
	ev = sub.queue[0]
	sub.queue = sub.queue[1:]
	return ev, true
}

// Pending reports the number of queued, not-yet-consumed events.
func (sub *subscription) Pending() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return len(sub.queue)
}

// Closed reports whether Close has been called.
func (sub *subscription) Closed() bool {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.closed
}

// Lagged reports whether the subscription overflowed its high-water mark
// and was detached from the live stream; its queue then holds a
// contiguous but truncated prefix.
func (sub *subscription) Lagged() bool {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.lagged
}

// Dropped reports how many live deliveries were refused since the lag
// latch. It undercounts the events the consumer missed — each shard stops
// attempting delivery after its first refusal — so treat any non-zero
// value as "resync required", not as a gap size.
func (sub *subscription) Dropped() uint64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.dropped
}

// Close detaches the subscription: publishers drop it on their next
// delivery attempt, and already-queued events remain readable.
func (sub *subscription) Close() {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.closed = true
}

// enqueue appends a live event and reports whether the subscription is
// still attached; publishers discard it on false. An event that would
// grow a bounded queue past its high-water mark is refused and latches
// lagged.
func (sub *subscription) enqueue(ev StoreEvent) bool {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed || sub.lagged {
		if sub.lagged && !sub.closed {
			sub.dropped++
		}
		return false
	}
	if sub.highWater > 0 && len(sub.queue) >= sub.highWater {
		sub.lagged = true
		sub.dropped++
		return false
	}
	sub.queue = append(sub.queue, ev)
	return true
}

// attach registers a new subscription with every shard and folds the
// store's current contents through apply, one shard at a time: under the
// shard's write lock it copies the shard's records into buf as replay
// events (Replay=true, one per record, describing its current state) and
// registers the subscription, then unlocks and folds buf before taking
// the next shard. The copy and the registration share the lock, so every
// later transition of the shard queues behind its folded replay, with
// nothing lost or duplicated in between; folding replay events like live
// ones therefore converges on the store's exact state. At most one
// shard's replay is held at a time, and none of it once attach returns.
// It reports how many replay events it folded.
func (s *Store) attach(highWater int, apply func(StoreEvent)) (*subscription, int) {
	sub := &subscription{highWater: highWater}
	var buf []StoreEvent
	folded := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		buf = sh.replayLocked(buf[:0])
		sh.subs = append(sh.subs, sub)
		sh.mu.Unlock()
		for _, ev := range buf {
			apply(ev)
		}
		folded += len(buf)
	}
	return sub, folded
}

// replayLocked appends one replay event per resident record to buf, in
// submission order, and returns the extended buffer. The caller holds
// sh.mu.
func (sh *shard) replayLocked(buf []StoreEvent) []StoreEvent {
	for _, id := range sh.order {
		ev := sh.records[id].ReplayEvent()
		ev.Shard = sh.idx
		buf = append(buf, ev)
	}
	return buf
}

// ReplayEvent renders the record as the replay event a Follower folds for
// it (StoreEvent.Replay): the kind its state implies, at SubmittedAt while
// offered and at DecidedAt after, carrying the assignment's schedule once
// assigned. Shard is left zero; the store's own replay sets it.
func (r Record) ReplayEvent() StoreEvent {
	ev := StoreEvent{Kind: stateEventKind(r.State), Replay: true, At: r.SubmittedAt, Offer: r.Offer}
	if r.State != Offered {
		ev.At = r.DecidedAt
	}
	if r.Assignment != nil {
		ev.Start, ev.Energies = r.Assignment.Start, r.Assignment.Energies
	}
	return ev
}

// Follower is one consumer's synchronous fold of the store's event
// stream, and the only exported way to consume it. Follow folds a replay
// of the store's contents before it returns; each Drain hands every
// pending live event to apply, in per-shard mutation order. With a
// positive high-water mark the queue is bounded, and an overflow latches
// it lagged; the next Drain applies the queued prefix, calls reset so the
// consumer discards its fold, and folds a fresh replay before returning.
// After every Drain the consumer's fold therefore equals one that never
// lagged. This lag → reset → replay protocol lives here and nowhere else.
//
// A Follower holds no lock of its own: the caller serialises Follow,
// Drain and Close under a lock it already holds; apply runs
// inside Follow and Drain, and reset inside Drain, under that lock.
// Resyncs is safe to call at any time.
type Follower struct {
	store     *Store
	highWater int
	apply     func(StoreEvent)
	reset     func()
	log       *obs.Logger
	sub       *subscription // replaced by Drain on resync; serialised by the caller
	resyncs   atomic.Uint64
}

// Follow attaches a Follower and folds the store's current contents
// through apply, one shard at a time, before it returns (see
// StoreEvent.Replay); the caller must therefore call it under the lock it
// drains under, once the state apply writes exists. highWater bounds the
// queue of live events (0 = unbounded). apply folds one event; reset
// discards the whole fold before a resync replays the store into it. log
// (may be nil) receives one warning per resync.
func (s *Store) Follow(highWater int, apply func(StoreEvent), reset func(), log *obs.Logger) *Follower {
	f := &Follower{store: s, highWater: highWater, apply: apply, reset: reset, log: log}
	f.sub, _ = s.attach(highWater, apply)
	return f
}

// Drain applies every pending event, resyncing through reset and a fresh
// replay whenever the queue lagged, and returns once the queue is empty.
func (f *Follower) Drain() {
	for {
		for ev, ok := f.sub.TryNext(); ok; ev, ok = f.sub.TryNext() {
			f.apply(ev)
		}
		if !f.sub.Lagged() || f.sub.Closed() {
			return
		}
		dropped := f.sub.Dropped()
		f.sub.Close()
		f.reset()
		var folded int
		f.sub, folded = f.store.attach(f.highWater, f.apply)
		f.log.Warn("event stream lagged; resynced via replay",
			"resyncs", f.resyncs.Add(1), "dropped_deliveries", dropped,
			"replayed_events", folded, "high_water", f.highWater)
	}
}

// Resyncs reports how often a lagged queue forced a reset and replay.
func (f *Follower) Resyncs() uint64 { return f.resyncs.Load() }

// Close detaches the follower from the stream; later Drains apply only
// what was already queued.
func (f *Follower) Close() { f.sub.Close() }

// publishLocked delivers one live event to every attached subscriber,
// numbering it with the shard's event sequence. Its journaled receipt
// means it runs under the write lock at the mutation site (insertLocked,
// transitionLocked), so each shard's delivery order is exactly its
// mutation order and a concurrent attach can never copy a record without
// also receiving every later transition. Closed subscriptions are dropped
// in place.
func (sh *shard) publishLocked(_ journaled, kind EventKind, r *Record, at time.Time) {
	if len(sh.subs) == 0 {
		return
	}
	sh.eventSeq++
	ev := StoreEvent{Kind: kind, Shard: sh.idx, Seq: sh.eventSeq, At: at, Offer: r.Offer}
	if kind == EventAssigned && r.Assignment != nil {
		ev.Start, ev.Energies = r.Assignment.Start, r.Assignment.Energies
	}
	live := sh.subs[:0]
	for _, sub := range sh.subs {
		if sub.enqueue(ev) {
			live = append(live, sub)
		}
	}
	for i := len(live); i < len(sh.subs); i++ {
		sh.subs[i] = nil // let dropped subscriptions be collected
	}
	sh.subs = live
}
