package kpi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/market"
)

// scriptState is the generator's view of one live (non-terminal) offer.
type scriptState struct {
	offer    *flexoffer.FlexOffer
	accepted bool
}

var scriptOwners = []string{"own-a", "own-b", "own-c", "own-d"}

// genScriptOffer builds a random offer: 1–4 slices of 15 or 30 minutes,
// energy bounds that are sometimes negative (production offers, which
// exercise the dirty-peak rescan), and a start window of 0–6 h somewhere
// in a two-day horizon.
func genScriptOffer(rng *rand.Rand, n int) *flexoffer.FlexOffer {
	base := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	earliest := base.Add(time.Duration(rng.Intn(2*24*4)) * 15 * time.Minute)
	f := &flexoffer.FlexOffer{
		ID:            fmt.Sprintf("offer-%06d", n),
		ConsumerID:    scriptOwners[rng.Intn(len(scriptOwners))],
		EarliestStart: earliest,
		LatestStart:   earliest.Add(time.Duration(rng.Intn(25)) * 15 * time.Minute),
	}
	slices := 1 + rng.Intn(4)
	for i := 0; i < slices; i++ {
		dur := 15 * time.Minute
		if rng.Intn(2) == 0 {
			dur = 30 * time.Minute
		}
		min := rng.Float64()*4 - 1 // sometimes negative: production offers
		f.Profile = append(f.Profile, flexoffer.Slice{
			Duration:  dur,
			MinEnergy: min,
			MaxEnergy: min + rng.Float64()*2,
		})
	}
	return f
}

// genAssignment schedules a live offer somewhere in its window with
// per-slice energies inside the slice bounds.
func genAssignment(rng *rand.Rand, f *flexoffer.FlexOffer) (time.Time, []float64) {
	window := f.TimeFlexibility()
	start := f.EarliestStart
	if window > 0 {
		start = start.Add(time.Duration(rng.Int63n(int64(window))))
	}
	energies := make([]float64, len(f.Profile))
	for i, s := range f.Profile {
		energies[i] = s.MinEnergy + rng.Float64()*(s.MaxEnergy-s.MinEnergy)
	}
	return start, energies
}

// TestKPIIncrementalBatchEquivalence drives seeded 300-step lifecycle
// scripts — submissions, decisions, assignments, expiries, replay-style
// bootstrap events, duplicate transitions and dead letters — through the
// incremental Tracker, checkpointing every 25 steps that its Report is
// bitwise-equal (reflect.DeepEqual, no tolerance) to the independent
// batch Compute over the full history. Mirrors the aggregator's
// TestIncrementalBatchEquivalence: 8 seeds, any divergence names the
// first differing checkpoint.
func TestKPIIncrementalBatchEquivalence(t *testing.T) {
	const steps, checkpointEvery, seeds = 300, 25, 8
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{Resolution: 15 * time.Minute}
			tr, err := NewTracker(cfg)
			if err != nil {
				t.Fatal(err)
			}

			var history []market.StoreEvent
			dead := make(map[string]uint64)
			var live []*scriptState
			nextID := 0

			emit := func(ev market.StoreEvent) {
				tr.Apply(ev)
				history = append(history, ev)
			}

			for step := 1; step <= steps; step++ {
				switch roll := rng.Float64(); {
				case roll < 0.05:
					// A dead letter: never a store event, booked out of band.
					owner := scriptOwners[rng.Intn(len(scriptOwners))]
					n := uint64(1 + rng.Intn(3))
					tr.ObserveDeadLetters(owner, n)
					dead[owner] += n
				case roll < 0.15:
					// A replay-style bootstrap event: an offer first seen in
					// a non-initial state, exercising the backfill path.
					nextID++
					f := genScriptOffer(rng, nextID)
					ev := market.StoreEvent{Replay: true, Offer: f}
					switch rng.Intn(4) {
					case 0:
						ev.Kind = market.EventAccepted
						emit(ev)
						live = append(live, &scriptState{offer: f, accepted: true})
					case 1:
						ev.Kind = market.EventRejected
						emit(ev)
					case 2:
						ev.Kind = market.EventAssigned
						ev.Start, ev.Energies = genAssignment(rng, f)
						emit(ev)
					default:
						ev.Kind = market.EventExpired
						emit(ev)
					}
				case roll < 0.5 || len(live) == 0:
					// A fresh submission.
					nextID++
					f := genScriptOffer(rng, nextID)
					emit(market.StoreEvent{Kind: market.EventSubmitted, Offer: f})
					live = append(live, &scriptState{offer: f})
					if rng.Float64() < 0.1 {
						// A duplicate submission folds as a no-op.
						emit(market.StoreEvent{Kind: market.EventSubmitted, Offer: f})
					}
				default:
					// Transition a random live offer.
					i := rng.Intn(len(live))
					st := live[i]
					terminal := true
					if !st.accepted {
						switch rng.Intn(4) {
						case 0:
							emit(market.StoreEvent{Kind: market.EventAccepted, Offer: st.offer})
							st.accepted = true
							terminal = false
						case 1:
							emit(market.StoreEvent{Kind: market.EventRejected, Offer: st.offer})
						default:
							emit(market.StoreEvent{Kind: market.EventExpired, Offer: st.offer})
						}
					} else {
						switch rng.Intn(3) {
						case 0:
							// A duplicate accept folds as a no-op.
							emit(market.StoreEvent{Kind: market.EventAccepted, Offer: st.offer})
							terminal = false
						case 1:
							start, energies := genAssignment(rng, st.offer)
							emit(market.StoreEvent{Kind: market.EventAssigned, Offer: st.offer, Start: start, Energies: energies})
						default:
							emit(market.StoreEvent{Kind: market.EventExpired, Offer: st.offer})
						}
					}
					if terminal {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}

				if step%checkpointEvery == 0 || step == steps {
					assertEquivalent(t, step, tr, cfg, history, dead)
					if t.Failed() {
						return
					}
				}
			}
		})
	}
}

// assertEquivalent requires the incremental and batch reports to be
// bitwise-identical, and both to serialise (no NaN/Inf snuck in).
func assertEquivalent(t *testing.T, step int, tr *Tracker, cfg Config, history []market.StoreEvent, dead map[string]uint64) {
	t.Helper()
	inc := tr.Report()
	batch, err := Compute(cfg, history, dead)
	if err != nil {
		t.Fatalf("step %d: Compute: %v", step, err)
	}
	if !reflect.DeepEqual(inc, batch) {
		t.Fatalf("step %d: incremental and batch reports diverged\nincremental: %+v\nbatch:       %+v", step, inc, batch)
	}
	if _, err := json.Marshal(inc); err != nil {
		t.Fatalf("step %d: report not serialisable (NaN/Inf?): %v", step, err)
	}
}

// TestFromRecordsMatchesReplayBootstrap checks the REST-facing recompute:
// folding a store's final records equals attaching a fresh
// replay-bootstrapped tracker to the same store.
func TestFromRecordsMatchesReplayBootstrap(t *testing.T) {
	now := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	store := market.NewStore(func() time.Time { return now })
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		f := genScriptOffer(rng, i)
		if err := store.Submit(f); err != nil {
			t.Fatalf("submit %s: %v", f.ID, err)
		}
		switch i % 4 {
		case 0: // stays offered
		case 1:
			if err := store.Reject(f.ID); err != nil {
				t.Fatal(err)
			}
		default:
			if err := store.Accept(f.ID); err != nil {
				t.Fatal(err)
			}
			if i%4 == 3 {
				start, energies := genAssignment(rng, f)
				if _, err := store.Assign(f.ID, start, energies); err != nil {
					t.Fatalf("assign %s: %v", f.ID, err)
				}
			}
		}
	}

	cfg := Config{Resolution: 15 * time.Minute}
	svc, err := NewService(ServiceConfig{Store: store, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	fromStream := svc.Report()

	fromRecords, err := FromRecords(cfg, store.List(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Counts and derived values must agree exactly: both paths fold one
	// synthetic state event per record. (Float sums may differ in order
	// across shards, but a single-shard store lists in submission order,
	// which is also replay order.)
	if !reflect.DeepEqual(fromStream, fromRecords) {
		t.Fatalf("stream and record recompute diverged\nstream:  %+v\nrecords: %+v", fromStream, fromRecords)
	}
}
