package market

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// subscribeFolded attaches a bare subscription the way Follow does and
// returns it with the replay events attach folded, in fold order. Live
// events then queue on the subscription, which the tests read directly.
func subscribeFolded(s *Store, highWater int) (*subscription, []StoreEvent) {
	var replay []StoreEvent
	sub, _ := s.attach(highWater, func(ev StoreEvent) { replay = append(replay, ev) })
	return sub, replay
}

// drainPending consumes every currently queued event without blocking.
func drainPending(sub *subscription) []StoreEvent {
	var out []StoreEvent
	for {
		ev, ok := sub.TryNext()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func TestEventStreamLifecycle(t *testing.T) {
	s, clock := newTestStore()
	sub, _ := subscribeFolded(s, 0)
	defer sub.Close()

	a := testOffer("a")
	if err := s.Submit(a); err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	if err := s.Submit(testOffer("b")); err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	if err := s.Submit(testOffer("c")); err != nil {
		t.Fatalf("Submit c: %v", err)
	}
	if err := s.Accept("a"); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if err := s.Reject("b"); err != nil {
		t.Fatalf("Reject: %v", err)
	}
	start := a.EarliestStart.Add(time.Hour)
	energies := []float64{0.75, 0.75, 0.75, 0.75}
	if _, err := s.Assign("a", start, energies); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	clock.Advance(3 * time.Hour) // past c's acceptance deadline
	if n, err := s.ExpireOverdue(); err != nil || n != 1 {
		t.Fatalf("ExpireOverdue = %d, %v", n, err)
	}

	events := drainPending(sub)
	want := []struct {
		kind EventKind
		id   string
	}{
		{EventSubmitted, "a"},
		{EventSubmitted, "b"},
		{EventSubmitted, "c"},
		{EventAccepted, "a"},
		{EventRejected, "b"},
		{EventAssigned, "a"},
		{EventExpired, "c"},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, ev := range events {
		if ev.Kind != want[i].kind || ev.Offer.ID != want[i].id {
			t.Errorf("event %d = %s %s, want %s %s", i, ev.Kind, ev.Offer.ID, want[i].kind, want[i].id)
		}
		if ev.Replay {
			t.Errorf("event %d: unexpected replay flag", i)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Kind == EventAssigned {
			if !ev.Start.Equal(start) || len(ev.Energies) != len(energies) {
				t.Errorf("assigned event schedule = %v %v", ev.Start, ev.Energies)
			}
		}
	}
}

func TestSubscribeReplayBootstrap(t *testing.T) {
	clock := &fakeClock{now: t0}
	s := NewShardedStore(4, clock.Now)

	ids := []string{"r1", "r2", "r3", "r4", "r5"}
	for _, id := range ids {
		if err := s.Submit(testOffer(id)); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
	}
	if err := s.Accept("r1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Reject("r2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept("r3"); err != nil {
		t.Fatal(err)
	}
	start := testOffer("r3").EarliestStart
	if _, err := s.Assign("r3", start, []float64{0.5, 0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}

	sub, replay := subscribeFolded(s, 0)
	defer sub.Close()
	if len(replay) != len(ids) {
		t.Fatalf("got %d replay events, want %d", len(replay), len(ids))
	}
	got := make(map[string]StoreEvent)
	for _, ev := range replay {
		if !ev.Replay {
			t.Errorf("event for %s not marked replay", ev.Offer.ID)
		}
		if ev.Seq != 0 {
			t.Errorf("replay event for %s has seq %d", ev.Offer.ID, ev.Seq)
		}
		if _, dup := got[ev.Offer.ID]; dup {
			t.Errorf("duplicate replay event for %s", ev.Offer.ID)
		}
		got[ev.Offer.ID] = ev
	}
	wantKinds := map[string]EventKind{
		"r1": EventAccepted,
		"r2": EventRejected,
		"r3": EventAssigned,
		"r4": EventSubmitted,
		"r5": EventSubmitted,
	}
	for id, kind := range wantKinds {
		ev, ok := got[id]
		if !ok {
			t.Errorf("no replay event for %s", id)
			continue
		}
		if ev.Kind != kind {
			t.Errorf("replay kind for %s = %s, want %s", id, ev.Kind, kind)
		}
	}
	if ev := got["r3"]; !ev.Start.Equal(start) || len(ev.Energies) != 4 {
		t.Errorf("replay assignment for r3 = %v %v", ev.Start, ev.Energies)
	}

	// Live events keep flowing after the bootstrap.
	if err := s.Accept("r4"); err != nil {
		t.Fatal(err)
	}
	live := drainPending(sub)
	if len(live) != 1 || live[0].Kind != EventAccepted || live[0].Offer.ID != "r4" || live[0].Replay {
		t.Fatalf("live events after replay = %+v", live)
	}
}

func TestSubscriptionClose(t *testing.T) {
	s, _ := newTestStore()
	sub, _ := subscribeFolded(s, 0)

	if err := s.Submit(testOffer("x")); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	if !sub.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	// Events published after Close are dropped, and the publisher detaches
	// the subscription.
	if err := s.Submit(testOffer("y")); err != nil {
		t.Fatal(err)
	}
	// Queued events stay readable after Close.
	if ev, ok := sub.TryNext(); !ok || ev.Offer.ID != "x" {
		t.Fatalf("TryNext after close = %+v, %v", ev, ok)
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("TryNext returned an event after drain on a closed subscription")
	}
	s.shards[0].mu.Lock()
	n := len(s.shards[0].subs)
	s.shards[0].mu.Unlock()
	if n != 0 {
		t.Errorf("shard still holds %d subscriptions after close", n)
	}
}

// TestEventStreamConcurrent checks the per-shard ordering contract under
// concurrent mutators: within each shard, delivered Seq values are
// contiguous, and each offer's submitted event precedes its accepted one.
func TestEventStreamConcurrent(t *testing.T) {
	clock := &fakeClock{now: t0}
	s := NewShardedStore(8, clock.Now)
	sub, _ := subscribeFolded(s, 0)
	defer sub.Close()

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Submit(testOffer(id)); err != nil {
					t.Errorf("Submit %s: %v", id, err)
					return
				}
				if err := s.Accept(id); err != nil {
					t.Errorf("Accept %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	wantEvents := workers * perWorker * 2
	lastSeq := make(map[int]uint64)
	state := make(map[string]EventKind)
	for i := 0; i < wantEvents; i++ {
		ev, ok := sub.TryNext()
		if !ok {
			t.Fatalf("stream ended after %d of %d events", i, wantEvents)
		}
		if prev, seen := lastSeq[ev.Shard]; seen && ev.Seq != prev+1 {
			t.Fatalf("shard %d: seq jumped %d -> %d", ev.Shard, prev, ev.Seq)
		}
		lastSeq[ev.Shard] = ev.Seq
		switch ev.Kind {
		case EventSubmitted:
			if prior, seen := state[ev.Offer.ID]; seen {
				t.Fatalf("offer %s: submitted after %s", ev.Offer.ID, prior)
			}
		case EventAccepted:
			if state[ev.Offer.ID] != EventSubmitted {
				t.Fatalf("offer %s: accepted before submitted", ev.Offer.ID)
			}
		default:
			t.Fatalf("unexpected event kind %s", ev.Kind)
		}
		state[ev.Offer.ID] = ev.Kind
	}
	if sub.Pending() != 0 {
		t.Fatalf("%d unexpected trailing events", sub.Pending())
	}
	for id, k := range state {
		if k != EventAccepted {
			t.Errorf("offer %s ended in %s", id, k)
		}
	}
}

// TestSubscribeReplayAtomic races the per-shard replay fold (attach)
// against concurrent submissions and acceptances: folding replay plus
// live events must converge on the store's final state — nothing lost,
// nothing duplicated.
func TestSubscribeReplayAtomic(t *testing.T) {
	clock := &fakeClock{now: t0}
	s := NewShardedStore(8, clock.Now)

	const workers, perWorker = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("ra-%d-%d", w, i)
				if err := s.Submit(testOffer(id)); err != nil {
					t.Errorf("Submit %s: %v", id, err)
					return
				}
				if i%2 == 0 {
					if err := s.Accept(id); err != nil {
						t.Errorf("Accept %s: %v", id, err)
						return
					}
				}
			}
		}(w)
	}

	time.Sleep(time.Millisecond) // let some mutations land first
	sub, replay := subscribeFolded(s, 0)
	defer sub.Close()
	wg.Wait()

	// Drain until the fold covers every offer in its final state. Replay
	// events may race live ones from other shards, but per shard the replay
	// snapshot precedes every subsequent transition, so the fold is exact.
	state := make(map[string]EventKind)
	for _, ev := range replay {
		state[ev.Offer.ID] = ev.Kind
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		for {
			ev, ok := sub.TryNext()
			if !ok {
				break
			}
			state[ev.Offer.ID] = ev.Kind
		}
		if converged(t, s, state, workers, perWorker) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fold did not converge: %d offers seen", len(state))
		}
		time.Sleep(time.Millisecond)
	}
}

// converged reports whether the folded event state matches the store.
func converged(t *testing.T, s *Store, state map[string]EventKind, workers, perWorker int) bool {
	t.Helper()
	if len(state) != workers*perWorker {
		return false
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("ra-%d-%d", w, i)
			want := EventSubmitted
			if i%2 == 0 {
				want = EventAccepted
			}
			if state[id] != want {
				return false
			}
			rec, ok := s.Get(id)
			if !ok {
				t.Fatalf("offer %s missing from store", id)
			}
			if stateEventKind(rec.State) != want {
				t.Fatalf("store state for %s = %v, fold = %v", id, rec.State, state[id])
			}
		}
	}
	return true
}
