package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flexoffer"
	"repro/internal/obs"
)

var errTransient = errors.New("transient sink failure")

// retryOutput builds an output carrying n offers.
func retryOutput(job string, n int) Output {
	offers := make(flexoffer.Set, n)
	for i := range offers {
		offers[i] = &flexoffer.FlexOffer{ID: fmt.Sprintf("%s/%d", job, i)}
	}
	return Output{JobID: job, Result: &core.Result{Offers: offers}}
}

// flakySink fails the first `failures` Puts, then delegates to a collect
// sink.
type flakySink struct {
	failures int32
	mode     string // "error" | "panic" | "partial"
	collect  CollectSink
	calls    atomic.Int32
}

func (f *flakySink) Put(ctx context.Context, out Output) error {
	if f.calls.Add(1) <= atomic.LoadInt32(&f.failures) {
		switch f.mode {
		case "panic":
			panic("flaky sink")
		case "partial":
			half := out.Result.Offers[:len(out.Result.Offers)/2]
			rest := out.Result.Offers[len(out.Result.Offers)/2:]
			_ = f.collect.Put(ctx, out.withOffers(half))
			return &PartialError{Remaining: rest, Cause: errTransient}
		default:
			return errTransient
		}
	}
	return f.collect.Put(ctx, out)
}

// fastPolicy keeps retry tests quick: tiny backoff, no jitter surprises.
func fastPolicy(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Jitter: 0.1, JitterSeed: 1}
}

func TestResilientSinkRetriesTransientErrors(t *testing.T) {
	inner := &flakySink{failures: 2}
	rs := NewResilientSink(inner, fastPolicy(4), nil)
	if err := rs.Put(context.Background(), retryOutput("a", 3)); err != nil {
		t.Fatal(err)
	}
	if got := len(inner.collect.Outputs()); got != 1 {
		t.Fatalf("inner sink holds %d outputs, want 1", got)
	}
	if rs.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", rs.Retries())
	}
	if dl := rs.DeadLetters(); len(dl) != 0 {
		t.Fatalf("dead letters %v, want none", dl)
	}
}

func TestResilientSinkContainsPanics(t *testing.T) {
	inner := &flakySink{failures: 1, mode: "panic"}
	rs := NewResilientSink(inner, fastPolicy(3), nil)
	if err := rs.Put(context.Background(), retryOutput("a", 2)); err != nil {
		t.Fatal(err)
	}
	if got := len(inner.collect.Outputs()); got != 1 {
		t.Fatalf("inner sink holds %d outputs, want 1", got)
	}
}

func TestResilientSinkDeadLettersAfterBudget(t *testing.T) {
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	inner := &flakySink{failures: 1 << 30}
	rs := NewResilientSink(inner, fastPolicy(3), tel)
	if err := rs.Put(context.Background(), retryOutput("doomed", 4)); err != nil {
		t.Fatalf("exhausted Put must not abort the batch: %v", err)
	}
	dl := rs.DeadLetters()
	if len(dl) != 1 {
		t.Fatalf("dead letters = %v, want one record", dl)
	}
	if dl[0].JobID != "doomed" || len(dl[0].Offers) != 4 || dl[0].Attempts != 3 {
		t.Fatalf("dead letter %+v, want job doomed, 4 offers, 3 attempts", dl[0])
	}
	if !errors.Is(dl[0].Err, errTransient) {
		t.Fatalf("dead-letter err %v, want errTransient", dl[0].Err)
	}
	if rs.DeadLetteredOffers() != 4 {
		t.Fatalf("DeadLetteredOffers = %d, want 4", rs.DeadLetteredOffers())
	}
	if tel.DeadLettered.Value() != 4 || tel.SinkRetries.Value() != 2 {
		t.Fatalf("telemetry dead=%d retries=%d, want 4/2", tel.DeadLettered.Value(), tel.SinkRetries.Value())
	}
}

func TestResilientSinkPartialResubmitsOnlyRemainder(t *testing.T) {
	inner := &flakySink{failures: 1, mode: "partial"}
	rs := NewResilientSink(inner, fastPolicy(4), nil)
	if err := rs.Put(context.Background(), retryOutput("a", 6)); err != nil {
		t.Fatal(err)
	}
	outs := inner.collect.Outputs()
	if len(outs) != 2 {
		t.Fatalf("inner sink saw %d Puts, want 2 (prefix, then remainder)", len(outs))
	}
	seen := map[string]int{}
	total := 0
	for _, out := range outs {
		for _, f := range out.Result.Offers {
			seen[f.ID]++
			total++
		}
	}
	if total != 6 {
		t.Fatalf("delivered %d offers, want 6", total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("offer %s delivered %d times", id, n)
		}
	}
}

func TestResilientSinkAttemptTimeout(t *testing.T) {
	var sawDeadline atomic.Bool
	inner := SinkFunc(func(ctx context.Context, out Output) error {
		if _, ok := ctx.Deadline(); ok {
			sawDeadline.Store(true)
		}
		<-ctx.Done()
		return ctx.Err()
	})
	policy := fastPolicy(2)
	policy.AttemptTimeout = 10 * time.Millisecond
	rs := NewResilientSink(inner, policy, nil)
	start := time.Now()
	if err := rs.Put(context.Background(), retryOutput("slow", 2)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Put took %v; the attempt timeout never fired", elapsed)
	}
	if !sawDeadline.Load() {
		t.Fatal("inner sink saw no per-attempt deadline")
	}
	if len(rs.DeadLetters()) != 1 {
		t.Fatalf("timed-out output not dead-lettered: %v", rs.DeadLetters())
	}
}

// TestResilientSinkCancellation is the satellite contract: a context
// cancelled while the retry path is sleeping (or attempting) must return
// promptly — never sleep out the full backoff — and must record the
// undelivered offers as dead-lettered.
func TestResilientSinkCancellation(t *testing.T) {
	const farBackoff = time.Hour
	cases := []struct {
		name    string
		policy  RetryPolicy
		inner   Sink
		cancel  func(cancel context.CancelFunc) // when to cancel relative to Put
		wantErr error
	}{
		{
			name:   "cancelled mid-backoff",
			policy: RetryPolicy{MaxAttempts: 5, BaseBackoff: farBackoff, MaxBackoff: farBackoff, AttemptTimeout: -1},
			inner:  SinkFunc(func(context.Context, Output) error { return errTransient }),
			cancel: func(cancel context.CancelFunc) {
				time.AfterFunc(20*time.Millisecond, cancel)
			},
			wantErr: context.Canceled,
		},
		{
			name:   "cancelled before the attempt",
			policy: RetryPolicy{MaxAttempts: 5, BaseBackoff: farBackoff, MaxBackoff: farBackoff, AttemptTimeout: -1},
			inner: SinkFunc(func(ctx context.Context, _ Output) error {
				return ctx.Err()
			}),
			cancel:  func(cancel context.CancelFunc) { cancel() },
			wantErr: context.Canceled,
		},
		{
			name:   "cancelled while the attempt blocks",
			policy: RetryPolicy{MaxAttempts: 5, BaseBackoff: farBackoff, MaxBackoff: farBackoff, AttemptTimeout: -1},
			inner: SinkFunc(func(ctx context.Context, _ Output) error {
				<-ctx.Done()
				return ctx.Err()
			}),
			cancel: func(cancel context.CancelFunc) {
				time.AfterFunc(20*time.Millisecond, cancel)
			},
			wantErr: context.Canceled,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rs := NewResilientSink(tc.inner, tc.policy, nil)
			tc.cancel(cancel)
			done := make(chan error, 1)
			start := time.Now()
			go func() { done <- rs.Put(ctx, retryOutput("c", 3)) }()
			select {
			case err := <-done:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Put = %v, want %v", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Put hung instead of honouring cancellation (backoff is 1h)")
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("Put returned after %v, want prompt return", elapsed)
			}
			dl := rs.DeadLetters()
			if len(dl) != 1 || len(dl[0].Offers) != 3 {
				t.Fatalf("dead letters %v, want the 3 undelivered offers recorded", dl)
			}
		})
	}
}

// TestRunWithResilientSinkCancellation drives the whole pipeline: cancel
// mid-batch while every sink attempt fails into a long backoff, and
// require Run to return promptly with the loss accounted in Stats.
func TestRunWithResilientSinkCancellation(t *testing.T) {
	jobs := batchJobs(6)
	inner := SinkFunc(func(context.Context, Output) error { return errTransient })
	rs := NewResilientSink(inner, RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Hour, MaxBackoff: time.Hour, AttemptTimeout: -1}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)

	type result struct {
		stats Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := RunJobs(ctx, Config{Workers: 3, NewExtractor: peakFactory}, jobs, rs)
		done <- result{stats, err}
	}()
	select {
	case res := <-done:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("RunJobs = %v, want context.Canceled", res.err)
		}
		if res.stats.DeadLettered == 0 {
			t.Fatal("cancelled batch recorded no dead-lettered offers")
		}
		if res.stats.DeadLettered != rs.DeadLetteredOffers() {
			t.Fatalf("Stats.DeadLettered = %d, sink reports %d", res.stats.DeadLettered, rs.DeadLetteredOffers())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunJobs hung after cancellation (backoff is 1h)")
	}
}

// TestRunStatsSurfaceRetries: a flaky-but-recoverable sink leaves zero
// dead letters but a visible retry count in the batch stats.
func TestRunStatsSurfaceRetries(t *testing.T) {
	jobs := batchJobs(4)
	var mu sync.Mutex
	failedOnce := map[string]bool{}
	inner := SinkFunc(func(ctx context.Context, out Output) error {
		mu.Lock()
		defer mu.Unlock()
		if !failedOnce[out.JobID] {
			failedOnce[out.JobID] = true
			return errTransient
		}
		return nil
	})
	rs := NewResilientSink(inner, fastPolicy(4), nil)
	stats, err := RunJobs(context.Background(), Config{Workers: 2, NewExtractor: peakFactory}, jobs, rs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SinkRetries != 4 {
		t.Fatalf("Stats.SinkRetries = %d, want 4 (one per job)", stats.SinkRetries)
	}
	if stats.DeadLettered != 0 {
		t.Fatalf("Stats.DeadLettered = %d, want 0", stats.DeadLettered)
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	def := DefaultRetryPolicy()
	if p.MaxAttempts != def.MaxAttempts || p.BaseBackoff != def.BaseBackoff ||
		p.MaxBackoff != def.MaxBackoff || p.AttemptTimeout != def.AttemptTimeout {
		t.Fatalf("zero policy resolved to %+v, want defaults", p)
	}
	if p.Jitter != 0 {
		t.Fatalf("zero jitter is an explicit no-jitter choice, got %v", p.Jitter)
	}
	custom := RetryPolicy{MaxAttempts: 7}.withDefaults()
	if custom.MaxAttempts != 7 || custom.BaseBackoff != DefaultRetryPolicy().BaseBackoff {
		t.Fatalf("partial policy resolved to %+v", custom)
	}
}

// TestResilientSinkWaitsFullBackoff: a failed attempt is retried only
// after the whole computed backoff.
func TestResilientSinkWaitsFullBackoff(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 2, BaseBackoff: 30 * time.Millisecond, MaxBackoff: 30 * time.Millisecond, JitterSeed: 1}
	inner := &flakySink{failures: 1}
	rs := NewResilientSink(inner, policy, nil)

	start := time.Now()
	if err := rs.Put(context.Background(), retryOutput("floor", 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("retry waited %v, want the full 30ms backoff", elapsed)
	}
}
