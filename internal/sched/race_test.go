package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
)

// laggingService builds a service whose event queue lags after two
// events, so every burst of writes forces a resync on the next drain.
func laggingService(t *testing.T, store *market.Store, clock *svcClock) *Service {
	t.Helper()
	svc, err := New(Config{
		Store:          store,
		Supply:         FlatSupply(10),
		Clock:          clock.Now,
		Horizon:        6 * time.Hour,
		Resolution:     15 * time.Minute,
		LedgerDir:      filepath.Join(t.TempDir(), "ledger"),
		EventHighWater: 2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

// TestMetricsScrapeDuringResync scrapes the agg_* and sched_* families in a
// goroutine while the service lags and resyncs. Run under -race it proves
// the metric callbacks and the resync share no unguarded state. Each wave
// is scheduled away before the next lags, so a resync that rebuilt the
// aggregator would restart agg_offers_joined_total below the number of
// joins so far; the lifetime counter must survive every resync.
func TestMetricsScrapeDuringResync(t *testing.T) {
	clock := &svcClock{now: svcT0}
	store := market.NewShardedStore(4, clock.Now)
	svc := laggingService(t, store, clock)
	defer svc.Close()
	reg := obs.NewRegistry()
	RegisterServiceMetrics(reg, svc)
	joined := func() float64 {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Error(err)
			return 0
		}
		var m map[string]any
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Error(err)
		}
		v, _ := m["agg_offers_joined_total"].(float64)
		return v
	}

	stop := make(chan struct{})
	scraped := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			joined()
			if first {
				close(scraped)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	<-scraped

	for wave := 0; wave < 5; wave++ {
		for i := 0; i < 10; i++ {
			est := svcT0.Add(2*time.Hour + time.Duration(i%4)*15*time.Minute)
			acceptOffer(t, store, svcOffer(fmt.Sprintf("sc-%d-%d", wave, i), est, time.Hour, 4, 0.5, 1.0))
		}
		if _, err := svc.Aggregates(); err != nil {
			t.Fatalf("wave %d Aggregates: %v", wave, err)
		}
		if got, want := joined(), float64(10*(wave+1)); got < want {
			t.Fatalf("wave %d: agg_offers_joined_total = %v after %v joins: a resync reset the lifetime counter", wave, got, want)
		}
		if _, err := svc.RunOnce(); err != nil {
			t.Fatalf("wave %d RunOnce: %v", wave, err)
		}
	}
	if got := svc.Status().Resyncs; got < 5 {
		t.Fatalf("Resyncs = %d, want one per wave", got)
	}
}

// TestCloseDuringPeriodicRounds closes services while 1 ms periodic rounds
// drain a lagging event queue and writes keep arriving. Under -race it
// proves Close is serialised with running rounds: it never reads the event
// queue while a resync replaces it, nor closes the ledger under an append.
// Close shares no other synchronisation with the rounds, so each trial
// lands it at a different point.
func TestCloseDuringPeriodicRounds(t *testing.T) {
	for trial := 1; trial <= 4; trial++ {
		clock := &svcClock{now: svcT0}
		store := market.NewShardedStore(4, clock.Now)
		svc := laggingService(t, store, clock)

		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			svc.RunPeriodically(ctx, time.Millisecond)
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 300 && ctx.Err() == nil; i++ {
				est := svcT0.Add(2*time.Hour + time.Duration(i%4)*15*time.Minute)
				f := svcOffer(fmt.Sprintf("cl-%d", i), est, time.Hour, 4, 0.5, 1.0)
				if err := store.Submit(f); err != nil {
					t.Errorf("Submit %s: %v", f.ID, err)
					return
				}
				if err := store.Accept(f.ID); err != nil {
					t.Errorf("Accept %s: %v", f.ID, err)
					return
				}
			}
		}()
		time.Sleep(time.Duration(trial) * 5 * time.Millisecond)
		if err := svc.Close(); err != nil {
			t.Errorf("trial %d Close: %v", trial, err)
		}
		cancel()
		wg.Wait()
	}
}
