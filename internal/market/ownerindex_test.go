package market

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// scanPage is the owner page as a scan of every position computes it:
// the reference the byOwner index is held to. It walks each shard's
// order from the cursor, keeps the records that match, and ends a full
// page at the next position of the walk, if the store has one.
func scanPage(t *testing.T, s *Store, q ListQuery) Page {
	t.Helper()
	limit := q.Limit
	if limit == 0 {
		limit = DefaultPageLimit
	}
	key := statesKey(q.States)
	start := cursor{States: key, Owner: q.Owner}
	if q.Cursor != "" {
		c, err := decodeCursor(q.Cursor)
		if err != nil {
			t.Fatalf("reference scan: %v", err)
		}
		start = c
	}
	want := map[State]bool{}
	for _, st := range q.States {
		want[st] = true
	}
	page := Page{Records: []Record{}}
	for si := start.Shard; si < len(s.shards); si++ {
		sh := s.shards[si]
		pos := 0
		if si == start.Shard {
			pos = start.Pos
		}
		sh.mu.RLock()
		for ; pos < len(sh.order); pos++ {
			if len(page.Records) == limit {
				sh.mu.RUnlock()
				page.NextCursor = encodeCursor(cursor{Shard: si, Pos: pos, States: key, Owner: q.Owner})
				return page
			}
			r := sh.records[sh.order[pos]]
			if (len(want) == 0 || want[r.State]) && (q.Owner == "" || r.Offer.ConsumerID == q.Owner) {
				page.Records = append(page.Records, *r)
			}
		}
		sh.mu.RUnlock()
	}
	return page
}

// ownerIndexOwners are the ConsumerIDs the property test draws from,
// "" (not indexed) included; "nobody" owns nothing.
var ownerIndexOwners = []string{"", "house-1", "house-2", "house-3", "<house&4>", "house-5"}

// grow submits n more offers from random owners and moves a random share
// of the offered records on through the lifecycle.
func grow(t *testing.T, rng *rand.Rand, s *Store, n int) {
	t.Helper()
	base := len(s.List())
	for i := 0; i < n; i++ {
		f := testOffer(fmt.Sprintf("o-%05d", base+i))
		f.ConsumerID = ownerIndexOwners[rng.Intn(len(ownerIndexOwners))]
		if err := s.Submit(f); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for _, r := range s.List(Offered) {
		switch id := r.Offer.ID; rng.Intn(5) {
		case 0:
			if err := s.Reject(id); err != nil {
				t.Fatalf("Reject: %v", err)
			}
		case 1, 2:
			if err := s.Accept(id); err != nil {
				t.Fatalf("Accept: %v", err)
			}
			if rng.Intn(2) == 0 {
				if _, err := s.Assign(id, t0.Add(7*time.Hour), []float64{0.75, 0.75, 0.75, 0.75}); err != nil {
					t.Fatalf("Assign: %v", err)
				}
			}
		}
	}
}

// comparePages fails unless the indexed page and the reference scan
// agree on every record and on the cursor string.
func comparePages(t *testing.T, s *Store, q ListQuery) Page {
	t.Helper()
	got, err := s.Page(q)
	if err != nil {
		t.Fatalf("Page(%+v): %v", q, err)
	}
	want := scanPage(t, s, q)
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("Page(%+v): %d records differ from the scan's %d", q, len(got.Records), len(want.Records))
	}
	if got.NextCursor != want.NextCursor {
		t.Fatalf("Page(%+v): cursor %q, scan gives %q", q, got.NextCursor, want.NextCursor)
	}
	return got
}

// TestOwnerIndexEqualsScan holds every owner walk and owner+state walk on
// random 1- and 4-shard stores to the scan it replaces: page by page, the
// same records and the same NextCursor strings, also when a walk resumes
// from a mid-walk cursor after more offers arrived and moved on.
func TestOwnerIndexEqualsScan(t *testing.T) {
	filters := [][]State{nil, {Offered}, {Accepted}, {Assigned, Rejected}, {Offered, Accepted, Assigned}}
	for seed := int64(1); seed <= 6; seed++ {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed-%d-shards-%d", seed, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				s := NewShardedStore(shards, (&fakeClock{now: t0}).Now)
				grow(t, rng, s, 20+rng.Intn(120))
				owners := append([]string{"nobody"}, ownerIndexOwners[1:]...)
				var mid []ListQuery
				for _, owner := range owners {
					for _, states := range filters {
						for _, limit := range []int{1, 2, 5, 100} {
							q := ListQuery{Owner: owner, States: states, Limit: limit}
							for pages := 0; ; pages++ {
								p := comparePages(t, s, q)
								if p.NextCursor == "" {
									break
								}
								q.Cursor = p.NextCursor
								if pages == 1 {
									mid = append(mid, q)
								}
							}
						}
					}
				}
				// Resume the mid-walk cursors after the store moved on.
				grow(t, rng, s, 10+rng.Intn(40))
				for _, q := range mid {
					for {
						p := comparePages(t, s, q)
						if p.NextCursor == "" {
							break
						}
						q.Cursor = p.NextCursor
					}
				}
			})
		}
	}
}
