package sched

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/market"
	"repro/internal/wal"
)

// runOnceRecover executes one round, converting an injected panic (a torn
// ledger write) into a flag instead of killing the test binary.
func runOnceRecover(svc *Service) (summary RunSummary, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	summary, err = svc.RunOnce()
	return
}

// TestCrashSchedulerLedger drives scheduling rounds over a ledger on a
// faulty disk until an injected fault kills the run, then recovers from a
// clean disk and checks the ledger invariant: every acknowledged decision
// is recovered, and at most one unacknowledged decision (durable before
// the crash hit, but never acked) may appear on top —
// acked ⊆ recovered ⊆ acked+1. The service guarantees at most one
// decision per round here because every applied assignment leaves the
// aggregator before the next round. After every round that returns, the
// store must hold exactly the members of the acknowledged decisions: a
// decision applied before its ledger append fails would show up here as
// an assignment nobody acknowledged.
func TestCrashSchedulerLedger(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			profile := faultinject.Profile{
				Seed:        seed,
				ErrorRate:   0.10,
				PartialRate: 0.10,
				PanicRate:   0.05,
			}
			fs := faultinject.WrapFS(wal.DiskFS, faultinject.NewSchedule(profile))
			dir := filepath.Join(t.TempDir(), "ledger")
			clock := &svcClock{now: svcT0}
			store := market.NewShardedStore(2, clock.Now)

			acked, members := 0, 0
			svc, err := New(Config{
				Store:      store,
				Supply:     FlatSupply(10),
				Clock:      clock.Now,
				Horizon:    6 * time.Hour,
				Resolution: 15 * time.Minute,
				LedgerDir:  dir,
				FS:         fs,
			})
			if err == nil {
				// The service is abandoned on crash (no Close): a crash
				// does not run destructors.
				for round := 0; round < 30; round++ {
					f := svcOffer(fmt.Sprintf("c%d-%d", seed, round), svcT0.Add(2*time.Hour), time.Hour, 4, 0.5, 1.0)
					acceptOffer(t, store, f)
					summary, err, panicked := runOnceRecover(svc)
					if panicked {
						break
					}
					if err != nil && !errors.Is(err, ErrLedger) {
						t.Fatalf("round %d failed outside the ledger: %v", round, err)
					}
					acked += summary.Decisions
					members += summary.Members
					if got := store.Stats().Assigned; got != members {
						t.Fatalf("round %d: store holds %d assignments, acknowledged decisions carry %d members", round, got, members)
					}
					if err != nil {
						break
					}
				}
			}

			// "Reboot": recover the ledger from a clean disk.
			clean, err := New(Config{
				Store:      market.NewShardedStore(2, clock.Now),
				Supply:     FlatSupply(10),
				Clock:      clock.Now,
				Horizon:    6 * time.Hour,
				Resolution: 15 * time.Minute,
				LedgerDir:  dir,
			})
			if err != nil {
				t.Fatalf("recovery open failed: %v", err)
			}
			defer clean.Close()
			recovered := clean.Status().Recovered
			if recovered.Decisions < uint64(acked) || recovered.Decisions > uint64(acked)+1 {
				t.Fatalf("recovered %d decisions, acked %d: want acked <= recovered <= acked+1",
					recovered.Decisions, acked)
			}
		})
	}
}
