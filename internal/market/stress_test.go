package market

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flexoffer"
)

// Concurrency stress tests: N goroutines hammer every lifecycle operation
// at once while sweepers and readers run, then the final store state is
// checked against invariants. Run with -race to catch synchronisation bugs.

var stressStart = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// stressOffer builds a valid offer whose acceptance/assignment deadlines
// sit `lead` after the given clock origin.
func stressOffer(id string, origin time.Time, lead time.Duration) *flexoffer.FlexOffer {
	return &flexoffer.FlexOffer{
		ID:             id,
		CreationTime:   origin,
		AcceptanceTime: origin.Add(lead),
		AssignmentTime: origin.Add(lead),
		EarliestStart:  origin.Add(lead + time.Hour),
		LatestStart:    origin.Add(lead + 5*time.Hour),
		Profile:        flexoffer.UniformProfile(4, 15*time.Minute, 0.5, 1.0),
	}
}

// stressShardCounts are the store shapes every concurrency stress test
// runs against: the single-shard baseline and a sharded layout, so the
// same races cover both the per-shard locking and the cross-shard paths.
var stressShardCounts = []int{1, 4}

// TestStoreConcurrentLifecycle drives submit/accept/reject/assign/sweep
// from many goroutines and asserts the final state is coherent.
func TestStoreConcurrentLifecycle(t *testing.T) {
	for _, shards := range stressShardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testStoreConcurrentLifecycle(t, shards)
		})
	}
}

func testStoreConcurrentLifecycle(t *testing.T, shards int) {
	// A mutable logical clock shared by every goroutine, advanced by the
	// expirer to push deadlines past.
	var nowNanos atomic.Int64
	nowNanos.Store(stressStart.UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNanos.Load()).UTC() }
	store := NewShardedStore(shards, clock)

	const (
		workers    = 8
		perWorker  = 50
		nearLead   = 30 * time.Minute // expirable by the sweeper's clock jump
		farLead    = 1000 * time.Hour // never expires during the test
		clockJumpN = 10
	)
	var submitted, accepted, rejected, assigned atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				lead := farLead
				if i%5 == 0 {
					lead = nearLead
				}
				f := stressOffer(id, clock(), lead)
				f.ConsumerID = fmt.Sprintf("owner-%d", w%3)
				if err := store.Submit(f); err != nil {
					// Near-lead offers may race the sweeper's clock jumps.
					if !errors.Is(err, ErrDeadline) {
						t.Errorf("submit %s: %v", id, err)
					}
					continue
				}
				submitted.Add(1)
				// The sweeper races every transition below: near-lead
				// offers may expire first, surfacing as ErrDeadline or
				// ErrTransition — both legal outcomes, never corruption.
				raced := func(err error) bool {
					return errors.Is(err, ErrDeadline) || errors.Is(err, ErrTransition)
				}
				switch i % 3 {
				case 0:
					// Leave offered; the sweeper may expire it.
				case 1:
					if err := store.Accept(id); err == nil {
						accepted.Add(1)
						if i%6 == 1 {
							f, _ := store.Get(id)
							es := make([]float64, len(f.Offer.Profile))
							for k := range es {
								es[k] = 0.75
							}
							if _, err := store.Assign(id, f.Offer.EarliestStart, es); err == nil {
								assigned.Add(1)
							} else if !raced(err) {
								t.Errorf("assign %s: %v", id, err)
							}
						}
					} else if !raced(err) {
						t.Errorf("accept %s: %v", id, err)
					}
				case 2:
					if err := store.Reject(id); err == nil {
						rejected.Add(1)
					} else if !raced(err) {
						t.Errorf("reject %s: %v", id, err)
					}
				}
			}
		}(w)
	}
	// Sweeper: advance the clock well past the near deadlines and expire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < clockJumpN; i++ {
			nowNanos.Add(int64(nearLead))
			store.ExpireOverdue()
		}
	}()
	// Readers: exercise every read path concurrently, owner pages (the
	// owner index) and page encoding included.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				store.Stats()
				store.List(Offered, Accepted)
				store.AcceptedOffers()
				store.Get(fmt.Sprintf("w0-%03d", i%perWorker))
				for _, q := range []ListQuery{
					{Owner: fmt.Sprintf("owner-%d", i%3), Limit: 7},
					{Owner: fmt.Sprintf("owner-%d", i%3), States: []State{Accepted, Assigned}, Limit: 7},
					{States: []State{Offered}, Limit: 7},
				} {
					page, err := store.Page(q)
					if err != nil {
						t.Errorf("Page(%+v): %v", q, err)
						return
					}
					if _, err := page.MarshalJSON(); err != nil {
						t.Errorf("marshal page: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// Invariants on the final state.
	counts := store.Stats()
	total := counts.Offered + counts.Accepted + counts.Rejected + counts.Assigned + counts.Expired
	if int64(total) != submitted.Load() {
		t.Fatalf("state counts sum to %d, submitted %d", total, submitted.Load())
	}
	records := store.List()
	if len(records) != total {
		t.Fatalf("List returned %d records, Stats counted %d", len(records), total)
	}
	if int64(counts.Rejected) != rejected.Load() {
		t.Fatalf("rejected %d, want %d", counts.Rejected, rejected.Load())
	}
	if int64(counts.Assigned) != assigned.Load() {
		t.Fatalf("assigned %d, want %d", counts.Assigned, assigned.Load())
	}
	// The owner index saw every concurrent insert: the owners' walks
	// together visit every record once.
	walked := 0
	for o := 0; o < 3; o++ {
		q := ListQuery{Owner: fmt.Sprintf("owner-%d", o), Limit: 13}
		for {
			page, err := store.Page(q)
			if err != nil {
				t.Fatalf("Page(%+v): %v", q, err)
			}
			for _, r := range page.Records {
				if r.Offer.ConsumerID != q.Owner {
					t.Fatalf("owner %s's walk returned %s of %s", q.Owner, r.Offer.ID, r.Offer.ConsumerID)
				}
			}
			walked += len(page.Records)
			if page.NextCursor == "" {
				break
			}
			q.Cursor = page.NextCursor
		}
	}
	if walked != total {
		t.Fatalf("owner walks visited %d records, the store holds %d", walked, total)
	}
	seen := make(map[string]bool, len(records))
	for _, r := range records {
		if seen[r.Offer.ID] {
			t.Fatalf("duplicate record %s in listing", r.Offer.ID)
		}
		seen[r.Offer.ID] = true
		switch r.State {
		case Assigned:
			if r.Assignment == nil {
				t.Fatalf("%s assigned without assignment", r.Offer.ID)
			}
		case Offered:
			if r.Assignment != nil {
				t.Fatalf("%s offered with assignment", r.Offer.ID)
			}
		}
		if r.State != Offered && r.DecidedAt.IsZero() {
			t.Fatalf("%s in state %s without decision time", r.Offer.ID, r.State)
		}
	}
}

// TestStoreConcurrentDuplicateSubmit races many goroutines submitting the
// same offer ID: exactly one must win.
func TestStoreConcurrentDuplicateSubmit(t *testing.T) {
	for _, shards := range stressShardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testStoreConcurrentDuplicateSubmit(t, shards)
		})
	}
}

func testStoreConcurrentDuplicateSubmit(t *testing.T, shards int) {
	store := NewShardedStore(shards, func() time.Time { return stressStart })
	const contenders = 16
	var wins, dups atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < contenders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := store.Submit(stressOffer("contested", stressStart, time.Hour))
			switch {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrDuplicate):
				dups.Add(1)
			default:
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 || dups.Load() != contenders-1 {
		t.Fatalf("wins=%d dups=%d, want 1/%d", wins.Load(), dups.Load(), contenders-1)
	}
	if got := len(store.List()); got != 1 {
		t.Fatalf("store holds %d records, want 1", got)
	}
}

// TestStoreConcurrentSubmitBatch fans batches out from several goroutines,
// with every batch sharing some colliding IDs.
func TestStoreConcurrentSubmitBatch(t *testing.T) {
	for _, shards := range stressShardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testStoreConcurrentSubmitBatch(t, shards)
		})
	}
}

func testStoreConcurrentSubmitBatch(t *testing.T, shards int) {
	store := NewShardedStore(shards, func() time.Time { return stressStart })
	const (
		batches   = 8
		batchSize = 25
		sharedIDs = 5
	)
	var acceptedTotal atomic.Int64
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			set := make(flexoffer.Set, 0, batchSize)
			for i := 0; i < batchSize; i++ {
				id := fmt.Sprintf("batch%d-%02d", b, i)
				if i < sharedIDs {
					id = fmt.Sprintf("shared-%02d", i) // collides across batches
				}
				set = append(set, stressOffer(id, stressStart, time.Hour))
			}
			res := store.SubmitBatch(set)
			acceptedTotal.Add(int64(res.Accepted))
			for _, f := range res.Failures {
				if !errors.Is(f.Err, ErrDuplicate) {
					t.Errorf("batch %d offer %d: %v", b, f.Index, f.Err)
				}
				if f.ID != set[f.Index].ID {
					t.Errorf("batch %d failure %d attributed to %q, offer is %q", b, f.Index, f.ID, set[f.Index].ID)
				}
			}
			if res.Accepted+res.Rejected() != batchSize {
				t.Errorf("batch %d: accepted %d + failed %d != %d", b, res.Accepted, res.Rejected(), batchSize)
			}
		}(b)
	}
	wg.Wait()
	want := batches*(batchSize-sharedIDs) + sharedIDs
	if got := len(store.List()); got != want || int64(got) != acceptedTotal.Load() {
		t.Fatalf("store holds %d records (accepted %d), want %d", got, acceptedTotal.Load(), want)
	}
}

func TestSubmitBatchValidation(t *testing.T) {
	store := NewStore(func() time.Time { return stressStart })
	good := stressOffer("good", stressStart, time.Hour)
	lapsed := stressOffer("lapsed", stressStart.Add(-10*time.Hour), time.Hour)
	invalid := stressOffer("invalid", stressStart, time.Hour)
	invalid.Profile = nil
	batch := flexoffer.Set{good, nil, invalid, lapsed, good.Clone()}
	res := store.SubmitBatch(batch)
	if res.Accepted != 1 || res.Submitted != len(batch) {
		t.Fatalf("accepted %d of %d, want 1 of %d", res.Accepted, res.Submitted, len(batch))
	}
	// Failures are indexed: each rejection names the offending slot.
	byIndex := make(map[int]BatchFailure, len(res.Failures))
	for i, f := range res.Failures {
		byIndex[f.Index] = f
		if i > 0 && res.Failures[i-1].Index >= f.Index {
			t.Fatalf("failures out of submission order: %+v", res.Failures)
		}
	}
	if _, ok := byIndex[0]; ok {
		t.Fatalf("good offer rejected: %v", byIndex[0].Err)
	}
	if !errors.Is(byIndex[1].Err, ErrBadRequest) || !errors.Is(byIndex[2].Err, ErrBadRequest) {
		t.Fatalf("nil/invalid offers: %+v, %+v", byIndex[1], byIndex[2])
	}
	if !errors.Is(byIndex[3].Err, ErrDeadline) || byIndex[3].ID != "lapsed" {
		t.Fatalf("lapsed offer: %+v", byIndex[3])
	}
	if !errors.Is(byIndex[4].Err, ErrDuplicate) || byIndex[4].ID != "good" {
		t.Fatalf("duplicate within batch: %+v", byIndex[4])
	}
	// FailedOffers maps the failures back onto the submitted set.
	failed := res.FailedOffers(batch)
	if len(failed) != 4 || failed[1] != invalid || failed[2] != lapsed {
		t.Fatalf("FailedOffers = %v", failed)
	}
	if err := res.FirstErr(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("FirstErr = %v, want the nil-offer rejection", err)
	}
}

// TestStoreConcurrentBatchLifecycle is the mixed-operation stress test:
// N goroutines run SubmitBatch while others Accept, Assign and
// ExpireOverdue the same ID space, and Stats must account every accepted
// offer exactly once — none counted twice, none dropped.
func TestStoreConcurrentBatchLifecycle(t *testing.T) {
	for _, shards := range stressShardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testStoreConcurrentBatchLifecycle(t, shards)
		})
	}
}

func testStoreConcurrentBatchLifecycle(t *testing.T, shards int) {
	var nowNanos atomic.Int64
	nowNanos.Store(stressStart.UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNanos.Load()).UTC() }
	store := NewShardedStore(shards, clock)

	const (
		submitters = 6
		batches    = 8
		batchSize  = 20
		nearLead   = 30 * time.Minute
		farLead    = 1000 * time.Hour
	)
	var acceptedIntoStore atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				set := make(flexoffer.Set, 0, batchSize)
				for i := 0; i < batchSize; i++ {
					lead := farLead
					if i%4 == 0 {
						lead = nearLead // expirable by the sweeper's clock jumps
					}
					set = append(set, stressOffer(fmt.Sprintf("s%d-b%d-%02d", w, b, i), clock(), lead))
				}
				res := store.SubmitBatch(set)
				acceptedIntoStore.Add(int64(res.Accepted))
				if res.Accepted+res.Rejected() != len(set) {
					t.Errorf("submitter %d: accepted %d + rejected %d != %d", w, res.Accepted, res.Rejected(), len(set))
				}
				for _, f := range res.Failures {
					// The only legal rejection here is a deadline racing a
					// sweeper clock jump; IDs are unique by construction.
					if !errors.Is(f.Err, ErrDeadline) {
						t.Errorf("submitter %d: %v", w, f.Err)
					}
				}
			}
		}(w)
	}
	// Deciders: accept offered records and assign accepted ones, racing
	// the submitters and the sweeper.
	for d := 0; d < 3; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range store.List(Offered) {
					_ = store.Accept(rec.Offer.ID)
				}
				for _, rec := range store.List(Accepted) {
					es := make([]float64, len(rec.Offer.Profile))
					for k := range es {
						es[k] = 0.75
					}
					_, _ = store.Assign(rec.Offer.ID, rec.Offer.EarliestStart, es)
				}
			}
		}()
	}
	// Sweeper: jump the clock past the near deadlines and expire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			nowNanos.Add(int64(nearLead))
			store.ExpireOverdue()
		}
	}()

	// Wait for the submitters and sweeper; then stop the deciders.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// Deciders loop until told to stop; give the submitters a moment.
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	<-done

	counts := store.Stats()
	total := counts.Offered + counts.Accepted + counts.Rejected + counts.Assigned + counts.Expired
	if int64(total) != acceptedIntoStore.Load() {
		t.Fatalf("Stats sums to %d states, SubmitBatch accepted %d — an offer was dropped or double-counted",
			total, acceptedIntoStore.Load())
	}
	records := store.List()
	if len(records) != total {
		t.Fatalf("List holds %d records, Stats counted %d", len(records), total)
	}
	seen := make(map[string]bool, len(records))
	for _, r := range records {
		if seen[r.Offer.ID] {
			t.Fatalf("offer %s counted twice", r.Offer.ID)
		}
		seen[r.Offer.ID] = true
	}
}
