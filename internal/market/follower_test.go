package market

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/flexoffer"
)

// stateRank orders lifecycle states: every transition moves an offer to a
// strictly higher rank, and terminal states (rank 2) never move again.
var stateRank = map[EventKind]int{EventSubmitted: 0, EventAccepted: 1, EventRejected: 2, EventAssigned: 2, EventExpired: 2}

// stateFold is a per-ID lifecycle fold that also checks every event
// advances its offer: a repeated or backward event means the stream
// duplicated history, or a resync did not reset the fold first.
type stateFold struct {
	states map[string]EventKind
	err    error
}

func newStateFold() *stateFold { return &stateFold{states: make(map[string]EventKind)} }

func (sf *stateFold) apply(ev StoreEvent) {
	id := ev.Offer.ID
	prev, seen := sf.states[id]
	switch {
	case seen && stateRank[ev.Kind] <= stateRank[prev]:
		sf.fail(fmt.Errorf("%s: %s after %s", id, ev.Kind, prev))
	case !seen && !ev.Replay && ev.Kind != EventSubmitted:
		sf.fail(fmt.Errorf("%s: live %s with no submission folded", id, ev.Kind))
	}
	sf.states[id] = ev.Kind
}

func (sf *stateFold) fail(err error) {
	if sf.err == nil {
		sf.err = err
	}
}

func (sf *stateFold) reset() { clear(sf.states) }

// followerOffer builds an offer submitted at now whose acceptance deadline
// falls 30 min to 3 h later, so clock advances expire some of them.
func followerOffer(rng *rand.Rand, id string, now time.Time) *flexoffer.FlexOffer {
	acc := now.Add(time.Duration(30+rng.Intn(150)) * time.Minute)
	return &flexoffer.FlexOffer{
		ID:             id,
		ConsumerID:     "c1",
		CreationTime:   now,
		AcceptanceTime: acc,
		AssignmentTime: acc.Add(2 * time.Hour),
		EarliestStart:  acc.Add(4 * time.Hour),
		LatestStart:    acc.Add(8 * time.Hour),
		Profile:        flexoffer.UniformProfile(4, 15*time.Minute, 0.5, 1.0),
	}
}

// foldStates folds a store's event stream into each offer's latest
// lifecycle state through a fresh, never-lagged follower.
func foldStates(s *Store) map[string]EventKind {
	fold := newStateFold()
	f := s.Follow(0, fold.apply, fold.reset, nil)
	defer f.Close()
	f.Drain()
	return fold.states
}

// listStates reads each offer's lifecycle state straight from the store.
func listStates(s *Store) map[string]EventKind {
	out := make(map[string]EventKind)
	for _, r := range s.List() {
		out[r.Offer.ID] = stateEventKind(r.State)
	}
	return out
}

// TestFollowerResyncEquivalence is the generic lag-recovery property: a
// follower with a small high-water mark (2–8) folds random
// submit/accept/reject/assign/expire scripts over a 4-shard store, with
// drains spaced at random so the lag latch fires at varied points. Every
// event must advance its offer's folded state, and after every drain the
// fold must equal a fresh follower's fold and the states Store.List
// reports.
func TestFollowerResyncEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clock := &fakeClock{now: t0}
			s := NewShardedStore(4, clock.Now)
			highWater := 2 + rng.Intn(7)

			fold := newStateFold()
			f := s.Follow(highWater, fold.apply, fold.reset, nil)
			defer f.Close()

			var ids []string
			for step := 0; step < 400; step++ {
				// Lifecycle errors (wrong state, lapsed deadline) are part
				// of the script: the store still publishes what it did.
				switch op := rng.Intn(10); {
				case op < 4 || len(ids) == 0:
					id := fmt.Sprintf("fw-%d", step)
					if err := s.Submit(followerOffer(rng, id, clock.Now())); err != nil {
						t.Fatalf("step %d submit: %v", step, err)
					}
					ids = append(ids, id)
				case op < 6:
					_ = s.Accept(ids[rng.Intn(len(ids))])
				case op < 7:
					_ = s.Reject(ids[rng.Intn(len(ids))])
				case op < 9:
					id := ids[rng.Intn(len(ids))]
					if rec, ok := s.Get(id); ok {
						_, _ = s.Assign(id, rec.Offer.EarliestStart, []float64{0.75, 0.75, 0.75, 0.75})
					}
				default:
					clock.Advance(time.Duration(rng.Intn(20)) * time.Minute)
					if _, err := s.ExpireOverdue(); err != nil {
						t.Fatalf("step %d expire: %v", step, err)
					}
				}
				if rng.Intn(4*highWater) != 0 && step != 399 {
					continue
				}
				f.Drain()
				if fold.err != nil {
					t.Fatalf("step %d (high-water %d, %d resyncs): %v", step, highWater, f.Resyncs(), fold.err)
				}
				if want := foldStates(s); !reflect.DeepEqual(fold.states, want) {
					t.Fatalf("step %d (high-water %d, %d resyncs): fold diverges from a fresh follower:\ngot  %v\nwant %v",
						step, highWater, f.Resyncs(), fold.states, want)
				}
				if want := listStates(s); !reflect.DeepEqual(fold.states, want) {
					t.Fatalf("step %d: fold diverges from Store.List:\ngot  %v\nwant %v", step, fold.states, want)
				}
				if f.sub.Pending() != 0 {
					t.Fatalf("step %d: %d events pending after Drain", step, f.sub.Pending())
				}
			}
			if f.Resyncs() == 0 {
				t.Fatalf("high-water %d never lagged; property untested", highWater)
			}
		})
	}
}

// TestFollowRetainsNoReplay: Follow folds the store's contents one shard
// at a time and queues none of them, so once it returns the follower
// holds no replay event. After a GC the heap it added must stay below a
// tenth of what the records' replay events alone would take.
func TestFollowRetainsNoReplay(t *testing.T) {
	const records = 20000
	s := NewShardedStore(4, (&fakeClock{now: t0}).Now)
	batch := make(flexoffer.Set, records)
	for i := range batch {
		batch[i] = testOffer(fmt.Sprintf("rn-%d", i))
	}
	if res := s.SubmitBatch(batch); res.Accepted != records {
		t.Fatalf("SubmitBatch accepted %d of %d: %v", res.Accepted, records, res.FirstErr())
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	folded := 0
	before := liveHeap()
	f := s.Follow(0, func(StoreEvent) { folded++ }, func() {}, nil)
	after := liveHeap()
	defer f.Close()
	budget := uint64(records) * uint64(unsafe.Sizeof(StoreEvent{})) / 10
	if after > before && after-before >= budget {
		t.Errorf("the follower retains %d B after Follow over %d records, want under %d B (a tenth of their replay events)",
			after-before, records, budget)
	}
	if folded != records {
		t.Errorf("Follow folded %d events, want %d", folded, records)
	}
}
