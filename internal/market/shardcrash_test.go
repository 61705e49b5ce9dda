// Per-shard crash-recovery tests: the acked ⊆ recovered ⊆ acked+1 ledger
// property applied to every shard's WAL stream independently. External
// package for the same reason as crash_test.go (faultinject would cycle).
package market_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/market"
	"repro/internal/wal"
)

// partitionByShard groups offer IDs by the shard they route to.
func partitionByShard(s *market.Store, ids []string) [][]string {
	out := make([][]string, s.ShardCount())
	for _, id := range ids {
		k := s.ShardIndex(id)
		out[k] = append(out[k], id)
	}
	return out
}

// TestCrashPerShardLedger runs the seeded kill-and-recover scenario
// against a 4-shard journaled store and asserts the ledger property per
// shard stream: every shard recovers all of its acknowledged offers in
// order, and each shard holds at most one unacknowledged trailing offer —
// the one whose record reached that shard's disk but whose ack was lost.
// Streams fail independently, so the bound is per shard, not global.
func TestCrashPerShardLedger(t *testing.T) {
	const shards = 4
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			clock := &crashClock{now: crashT0}
			sched := faultinject.NewSchedule(faultinject.Profile{
				Seed:        seed,
				ErrorRate:   0.10,
				PartialRate: 0.10,
				PanicRate:   0.05,
			})
			s, _, err := market.OpenJournaled(market.JournalOptions{
				Dir:    dir,
				Shards: shards,
				Clock:  clock.Now,
				FS:     faultinject.WrapFS(wal.DiskFS, sched),
			})
			if err != nil {
				t.Fatalf("OpenJournaled: %v", err)
			}
			acked := submitUntilDone(t, s, 40)
			// Crash: abandon the journal without closing it.

			got, s2, j2 := recoveredIDs(t, dir, clock)
			if j2.ShardCount() != shards {
				t.Fatalf("recovered journal has %d shards, want %d", j2.ShardCount(), shards)
			}
			ackedBy := partitionByShard(s2, acked)
			gotBy := partitionByShard(s2, got)
			for k := 0; k < shards; k++ {
				if len(gotBy[k]) > len(ackedBy[k])+1 {
					t.Fatalf("shard %d recovered %d offers from %d acked", k, len(gotBy[k]), len(ackedBy[k]))
				}
				// Acked offers survive in order within their shard's stream.
				i := 0
				for _, id := range gotBy[k] {
					if i < len(ackedBy[k]) && id == ackedBy[k][i] {
						i++
					}
				}
				if i != len(ackedBy[k]) {
					t.Fatalf("shard %d lost acked offers:\nacked %v\ngot   %v", k, ackedBy[k], gotBy[k])
				}
			}
			// The recovery summary counts every stream's offers.
			if rec := j2.Recovery(); rec.Offers != len(got) {
				t.Fatalf("RecoveryStats.Offers = %d, want the %d recovered offers", rec.Offers, len(got))
			}
		})
	}
}

// TestShardCountPinnedAcrossReopen checks that a directory's shard count
// is adopted on reopen (Shards: 0), that a conflicting explicit count is
// refused, and that the count survives even when higher-index shards
// never journaled a single event.
func TestShardCountPinnedAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	clock := &crashClock{now: crashT0}
	s, j, err := market.OpenJournaled(market.JournalOptions{Dir: dir, Shards: 5, Clock: clock.Now})
	if err != nil {
		t.Fatalf("OpenJournaled: %v", err)
	}
	// One offer is enough: most shards stay empty, yet their directories
	// must still pin the count.
	if err := s.Submit(crashOffer("only")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, _, err := market.OpenJournaled(market.JournalOptions{Dir: dir, Shards: 2, Clock: clock.Now}); err == nil {
		t.Fatal("reopen with a conflicting shard count was accepted")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("conflicting reopen error %q does not explain the shard mismatch", err)
	}

	s2, j2, err := market.OpenJournaled(market.JournalOptions{Dir: dir, Clock: clock.Now})
	if err != nil {
		t.Fatalf("adopting reopen: %v", err)
	}
	defer j2.Close()
	if s2.ShardCount() != 5 || j2.ShardCount() != 5 {
		t.Fatalf("reopen adopted %d shards, want 5", s2.ShardCount())
	}
	if _, ok := s2.Get("only"); !ok {
		t.Fatal("offer lost across the sharded reopen")
	}
}

// TestFlatLayoutRefused checks that a pre-sharding flat journal directory
// is refused with a migration hint instead of being silently shadowed.
func TestFlatLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	clock := &crashClock{now: crashT0}
	// Build a flat layout the way the pre-sharding code did: a WAL
	// segment directly in the directory.
	log, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if _, err := log.Append([]byte(`{"kind":"submit"}`)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, _, err = market.OpenJournaled(market.JournalOptions{Dir: dir, Clock: clock.Now})
	if err == nil {
		t.Fatal("flat layout accepted")
	}
	if !strings.Contains(err.Error(), "flat") {
		t.Fatalf("error %q does not name the flat layout", err)
	}
	if errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("flat layout misreported as corruption: %v", err)
	}
}
