package market

import (
	"fmt"
	"testing"
	"time"
)

// TestListAllocations holds a full-store listing to one allocation, the
// sized result slice, whatever the state filter: 10,000 records in 4
// shards, every fourth accepted. The bound also holds under -race.
func TestListAllocations(t *testing.T) {
	clock := &fakeClock{now: t0}
	s := NewShardedStore(4, clock.Now)
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("l-%05d", i)
		if err := s.Submit(testOffer(id)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if i%4 == 0 {
			if err := s.Accept(id); err != nil {
				t.Fatalf("Accept: %v", err)
			}
		}
	}
	for _, c := range []struct {
		name string
		list func() []Record
		want int
	}{
		{"List()", func() []Record { return s.List() }, 10000},
		{"List(Accepted)", func() []Record { return s.List(Accepted) }, 2500},
		{"List(Accepted, Offered)", func() []Record { return s.List(Accepted, Offered) }, 10000},
	} {
		if got := len(c.list()); got != c.want {
			t.Fatalf("%s returned %d records, want %d", c.name, got, c.want)
		}
		if allocs := testing.AllocsPerRun(5, func() { c.list() }); allocs != 1 {
			t.Errorf("%s allocates %.0f times, want 1", c.name, allocs)
		}
	}
}

// TestPageMarshalAllocations holds the encoding of a 100-record page to
// one allocation, the output buffer, whatever its records' states: with
// no record assigned and with 25 assigned. Every record, its offer and
// its assignment are appended by hand into that buffer. The bound also
// holds under -race.
func TestPageMarshalAllocations(t *testing.T) {
	clock := &fakeClock{now: t0}
	s := NewShardedStore(4, clock.Now)
	for i := 0; i < 100; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("p-%03d", i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	marshalAllocs := func() (allocs float64, assigned int) {
		page, err := s.Page(ListQuery{Limit: 100})
		if err != nil || len(page.Records) != 100 {
			t.Fatalf("Page: %d records, %v", len(page.Records), err)
		}
		for _, r := range page.Records {
			if r.Assignment != nil {
				assigned++
			}
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := page.MarshalJSON(); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, assigned
	}
	if allocs, _ := marshalAllocs(); allocs != 1 {
		t.Errorf("page with no assigned record allocates %.0f times, want 1", allocs)
	}

	for i := 0; i < 100; i += 4 {
		id := fmt.Sprintf("p-%03d", i)
		if err := s.Accept(id); err != nil {
			t.Fatalf("Accept: %v", err)
		}
		if _, err := s.Assign(id, t0.Add(7*time.Hour), []float64{0.75, 0.75, 0.75, 0.75}); err != nil {
			t.Fatalf("Assign: %v", err)
		}
	}
	allocs, assigned := marshalAllocs()
	if assigned != 25 {
		t.Fatalf("page holds %d assigned records, want 25", assigned)
	}
	if allocs != 1 {
		t.Errorf("page with %d assigned records allocates %.0f times, want 1", assigned, allocs)
	}
}
