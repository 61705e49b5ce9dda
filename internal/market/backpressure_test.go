package market

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flexoffer"
)

// TestSubscriptionHighWaterLatchesLag: live events past the high-water
// mark are refused, the lag latch fires exactly once, the queued prefix
// stays readable, and TryNext reports ok=false once the prefix is drained.
func TestSubscriptionHighWaterLatchesLag(t *testing.T) {
	s, _ := newTestStore()
	sub, _ := subscribeFolded(s, 4)
	defer sub.Close()

	for i := 0; i < 10; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("hw-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := sub.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want the high-water mark 4", got)
	}
	if !sub.Lagged() {
		t.Fatal("subscription did not latch lagged past the high-water mark")
	}
	if sub.Dropped() == 0 {
		t.Fatal("Dropped = 0 after refused deliveries")
	}
	if sub.Closed() {
		t.Fatal("lag latch must not close the subscription")
	}

	// The contiguous prefix stays readable...
	for i := 0; i < 4; i++ {
		ev, ok := sub.TryNext()
		if !ok {
			t.Fatalf("TryNext() = !ok at queued event %d", i)
		}
		if ev.Offer.ID != fmt.Sprintf("hw-%d", i) {
			t.Fatalf("event %d = %s, want hw-%d (prefix order)", i, ev.Offer.ID, i)
		}
	}
	// ...and nothing follows it.
	if _, ok := sub.TryNext(); ok {
		t.Fatal("TryNext() = ok on a drained lagged subscription")
	}
}

// TestSubscriptionHighWaterPublisherDetach: once lagged, every shard
// drops the subscription, so later mutations are not delivered even if
// the consumer drains below the mark.
func TestSubscriptionHighWaterPublisherDetach(t *testing.T) {
	s, _ := newTestStore()
	sub, _ := subscribeFolded(s, 2)
	defer sub.Close()

	for i := 0; i < 3; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("d-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if !sub.Lagged() {
		t.Fatal("not lagged after overflowing")
	}
	drained := drainPending(sub)
	if len(drained) != 2 {
		t.Fatalf("drained %d events, want 2", len(drained))
	}
	// Draining does not reattach: this event must not arrive.
	if err := s.Submit(testOffer("d-after")); err != nil {
		t.Fatal(err)
	}
	if got := sub.Pending(); got != 0 {
		t.Fatalf("detached subscription received %d events after lag", got)
	}
}

// TestSubscriptionCloseWhileLagged: Close on a lagged subscription is
// safe and keeps reporting closed.
func TestSubscriptionCloseWhileLagged(t *testing.T) {
	s, _ := newTestStore()
	sub, _ := subscribeFolded(s, 1)
	for i := 0; i < 3; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("c-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if !sub.Lagged() {
		t.Fatal("not lagged")
	}
	sub.Close()
	if !sub.Closed() || !sub.Lagged() {
		t.Fatalf("Closed=%v Lagged=%v after Close, want true/true", sub.Closed(), sub.Lagged())
	}
	// Queued events remain readable after Close, then the queue is empty.
	if _, ok := sub.TryNext(); !ok {
		t.Fatal("queued event unreadable after Close")
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("TryNext() = ok on drained closed subscription")
	}
}

// TestSubscribeReplayBootstrapExemptFromHighWater: the replay bootstrap
// is folded whole, even when it exceeds the high-water mark, and never
// queued; only live events count against the bound, so a mark's worth of
// them queue on top of it, and one more latches.
func TestSubscribeReplayBootstrapExemptFromHighWater(t *testing.T) {
	s, _ := newTestStore()
	for i := 0; i < 10; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sub, replay := subscribeFolded(s, 4)
	defer sub.Close()
	if got := len(replay); got != 10 {
		t.Fatalf("bootstrap delivered %d events, want all 10", got)
	}
	if got := sub.Pending(); got != 0 {
		t.Fatalf("Pending = %d after the bootstrap, want 0: replay is folded, not queued", got)
	}
	if sub.Lagged() {
		t.Fatal("bootstrap alone must not latch lag")
	}
	for i := 0; i < 4; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("b-live-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Lagged() {
		t.Fatal("a mark's worth of live events on top of the bootstrap latched lag")
	}
	if err := s.Submit(testOffer("b-live-4")); err != nil {
		t.Fatal(err)
	}
	if !sub.Lagged() {
		t.Fatal("live event past the mark did not latch lag")
	}
	if got := sub.Pending(); got != 4 {
		t.Fatalf("Pending = %d after refused live event, want 4", got)
	}
}

// TestFollowOverMarkStoreWriteBeforeDrain: a store holding more records
// than the follower's high-water mark takes one write before the first
// Drain. The write queues alone, so the Drain folds it without a resync,
// and every record is folded exactly once.
func TestFollowOverMarkStoreWriteBeforeDrain(t *testing.T) {
	const highWater, records = 1000, 2000
	s := NewShardedStore(4, (&fakeClock{now: t0}).Now)
	batch := make(flexoffer.Set, records)
	for i := range batch {
		batch[i] = testOffer(fmt.Sprintf("om-%d", i))
	}
	if res := s.SubmitBatch(batch); res.Accepted != records {
		t.Fatalf("SubmitBatch accepted %d of %d: %v", res.Accepted, records, res.FirstErr())
	}
	folds := make(map[string]int) // never reset: counts every apply
	f := s.Follow(highWater, func(ev StoreEvent) { folds[ev.Offer.ID]++ }, func() {}, nil)
	defer f.Close()
	if err := s.Submit(testOffer("om-live")); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if got := f.Resyncs(); got != 0 {
		t.Errorf("Resyncs = %d, want 0", got)
	}
	if len(folds) != records+1 {
		t.Fatalf("folded %d distinct offers, want %d", len(folds), records+1)
	}
	for id, n := range folds {
		if n != 1 {
			t.Fatalf("offer %s folded %d times, want once", id, n)
		}
	}
}

// TestSubscriptionUnboundedUnchanged: without a high-water mark the original
// contract holds — no latch, no drops, everything delivered.
func TestSubscriptionUnboundedUnchanged(t *testing.T) {
	s, _ := newTestStore()
	sub, _ := subscribeFolded(s, 0)
	defer sub.Close()
	for i := 0; i < 100; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("u-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Lagged() || sub.Dropped() != 0 {
		t.Fatalf("unbounded subscription lagged=%v dropped=%d", sub.Lagged(), sub.Dropped())
	}
	if got := sub.Pending(); got != 100 {
		t.Fatalf("Pending = %d, want 100", got)
	}
}

// TestSubscriptionHighWaterStress races concurrent submitters against one
// fast consumer (drains everything) and one artificially slow consumer
// with a small bound: the slow queue must never exceed its high-water
// mark, the fast consumer must see every event, and the slow consumer
// must end lagged with an intact prefix. Run with -race.
func TestSubscriptionHighWaterStress(t *testing.T) {
	const (
		highWater = 8
		writers   = 4
		perWriter = 200
	)
	s := NewShardedStore(4, (&fakeClock{now: t0}).Now)
	fast, _ := subscribeFolded(s, 0)
	defer fast.Close()
	slow, _ := subscribeFolded(s, highWater)
	defer slow.Close()

	var stop atomic.Bool
	var maxPending atomic.Int64
	var slowSeen atomic.Int64
	var wg sync.WaitGroup

	// The slow consumer: sample Pending, consume with a delay.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if p := int64(slow.Pending()); p > maxPending.Load() {
				maxPending.Store(p)
			}
			if _, ok := slow.TryNext(); ok {
				slowSeen.Add(1)
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	// The fast consumer keeps its queue near-empty.
	var fastSeen atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, ok := fast.TryNext(); ok {
				fastSeen.Add(1)
			} else {
				runtime.Gosched()
			}
		}
	}()

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Submit(testOffer(fmt.Sprintf("st-%d-%d", w, i))); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()

	// Fast consumer must observe every submitted event.
	deadline := time.Now().Add(5 * time.Second)
	for fastSeen.Load() < writers*perWriter && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fast.Close()
	stop.Store(true)
	wg.Wait()

	if got := fastSeen.Load(); got != writers*perWriter {
		t.Errorf("fast consumer saw %d events, want %d", got, writers*perWriter)
	}
	if got := maxPending.Load(); got > highWater {
		t.Errorf("slow queue reached %d, must never exceed high-water %d", got, highWater)
	}
	if !slow.Lagged() {
		t.Error("slow consumer never lagged under 4x sustained overload")
	}
	if seen := slowSeen.Load() + int64(slow.Pending()); seen > writers*perWriter {
		t.Errorf("slow consumer accounted %d events, more than were published", seen)
	}
}
