package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/flexoffer"
)

// ErrSinkPanic wraps a panic recovered from a wrapped sink's Put by a
// ResilientSink; the panicking attempt fails and is retried like any other
// transient error.
var ErrSinkPanic = errors.New("pipeline: sink panic")

// PartialError reports a partially delivered batch: the sink accepted a
// prefix of the output's offers and failed the rest. A ResilientSink
// resubmits only Remaining, so already-delivered offers are never
// duplicated by the retry path. Sinks that can fail mid-batch (a store
// behind a flaky transport, an injected partial fault) return it from Put.
type PartialError struct {
	// Remaining are the offers the sink did not deliver.
	Remaining flexoffer.Set
	// Cause is why delivery stopped; never nil.
	Cause error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("pipeline: partial delivery, %d offers undelivered: %v", len(e.Remaining), e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Cause }

// RetryPolicy bounds the resilient submit path: how often to retry a
// failed sink Put, how long to back off between attempts, and how long one
// attempt may run. Zero-valued fields take the DefaultRetryPolicy values,
// so callers only override what they care about — except Jitter and
// JitterSeed, where zero is a valid explicit choice (no jitter).
type RetryPolicy struct {
	// MaxAttempts is the total number of Put attempts per output
	// (first try included).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles each
	// further retry.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Jitter spreads each backoff by a uniform factor in [1-Jitter,
	// 1+Jitter], decorrelating retry storms across workers. Must be in
	// [0,1).
	Jitter float64
	// JitterSeed seeds the jitter source, keeping backoff sequences
	// reproducible for a given seed.
	JitterSeed int64
	// AttemptTimeout bounds one Put attempt; the inner sink sees a
	// context that expires after it. Negative disables the bound
	// (zero means the default).
	AttemptTimeout time.Duration
}

// DefaultRetryPolicy is the submit-path default: four attempts, 10ms
// initial backoff doubling to at most one second, 20% jitter, and a
// five-second per-attempt timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    4,
		BaseBackoff:    10 * time.Millisecond,
		MaxBackoff:     time.Second,
		Jitter:         0.2,
		JitterSeed:     1,
		AttemptTimeout: 5 * time.Second,
	}
}

// withDefaults fills zero-valued fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = def.Jitter
	}
	if p.AttemptTimeout == 0 {
		p.AttemptTimeout = def.AttemptTimeout
	}
	return p
}

// DeadLetter records offers that exhausted the retry budget (or were cut
// off by cancellation) and therefore never reached the inner sink. The
// dead-letter set closes the accounting loop: every extracted offer either
// lands in the sink or appears here — none are silently lost.
type DeadLetter struct {
	// JobID is the job whose offers are recorded.
	JobID string
	// Offers are the undelivered offers.
	Offers flexoffer.Set
	// Attempts is how many Put attempts were made before giving up.
	Attempts int
	// Err is the last delivery error observed.
	Err error
}

// String implements fmt.Stringer with a log-friendly summary.
func (d DeadLetter) String() string {
	return fmt.Sprintf("dead-letter[job %s: %d offers after %d attempts: %v]", d.JobID, len(d.Offers), d.Attempts, d.Err)
}

// ResilientSink makes a fallible sink survivable: every Put is retried
// with exponential backoff and jitter under a per-attempt timeout, panics
// in the inner sink are contained into retryable errors, partial
// deliveries (PartialError) resubmit only the undelivered offers, and
// outputs that exhaust the budget are dead-lettered instead of aborting
// the batch. Run surfaces the resulting counts in Stats (SinkRetries,
// DeadLettered) when the batch's sink is a *ResilientSink; Telemetry, when
// set, additionally exports them on /metrics.
//
// The accumulated counters are cumulative over the sink's lifetime, so use
// one ResilientSink per batch when per-batch accounting matters.
type ResilientSink struct {
	inner     Sink
	policy    RetryPolicy
	telemetry *Telemetry

	mu      sync.Mutex
	rng     *rand.Rand   // guarded by mu: jitter source
	retries int          // guarded by mu
	dead    []DeadLetter // guarded by mu
}

// NewResilientSink wraps inner with the retry/dead-letter discipline.
// telemetry may be nil.
func NewResilientSink(inner Sink, policy RetryPolicy, telemetry *Telemetry) *ResilientSink {
	policy = policy.withDefaults()
	return &ResilientSink{
		inner:     inner,
		policy:    policy,
		telemetry: telemetry,
		rng:       rand.New(rand.NewSource(policy.JitterSeed)),
	}
}

// Put implements Sink. It returns nil when the output was delivered or
// dead-lettered (the batch keeps flowing either way) and the context's
// error when cancellation cut the attempt loop short — after recording the
// undelivered offers as dead-lettered, so the accounting stays closed.
func (r *ResilientSink) Put(ctx context.Context, out Output) error {
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := r.attempt(ctx, out)
		if err == nil {
			return nil
		}
		var pe *PartialError
		if errors.As(err, &pe) {
			// The delivered prefix landed; only the remainder retries.
			out = out.withOffers(pe.Remaining)
			if err = pe.Cause; err == nil {
				err = pe
			}
			if len(pe.Remaining) == 0 {
				return nil
			}
		}
		lastErr = err
		if ctxErr := ctx.Err(); ctxErr != nil {
			r.deadLetter(out, attempt, lastErr)
			return ctxErr
		}
		if attempt >= r.policy.MaxAttempts {
			r.deadLetter(out, attempt, lastErr)
			return nil
		}
		r.noteRetry()
		if sleepErr := sleepCtx(ctx, r.backoff(attempt)); sleepErr != nil {
			// Cancelled mid-backoff: return promptly, never sleep out
			// the full delay, and account the undelivered offers.
			r.deadLetter(out, attempt, lastErr)
			return sleepErr
		}
	}
}

// attempt runs one inner Put under the per-attempt timeout, containing
// panics into errors.
func (r *ResilientSink) attempt(ctx context.Context, out Output) (err error) {
	if r.policy.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.policy.AttemptTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrSinkPanic, p)
		}
	}()
	return r.inner.Put(ctx, out)
}

// backoff computes the jittered delay before retry number `attempt`.
func (r *ResilientSink) backoff(attempt int) time.Duration {
	d := r.policy.BaseBackoff << (attempt - 1)
	if d > r.policy.MaxBackoff || d <= 0 { // <=0: shift overflow
		d = r.policy.MaxBackoff
	}
	if r.policy.Jitter > 0 {
		r.mu.Lock()
		factor := 1 + r.policy.Jitter*(2*r.rng.Float64()-1)
		r.mu.Unlock()
		d = time.Duration(float64(d) * factor)
	}
	return d
}

// sleepCtx sleeps for d unless the context ends first, in which case it
// returns the context's error immediately.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deadLetter records out's offers as undeliverable.
func (r *ResilientSink) deadLetter(out Output, attempts int, err error) {
	var offers flexoffer.Set
	if out.Result != nil {
		offers = out.Result.Offers
	}
	r.telemetry.deadLettered(len(offers))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dead = append(r.dead, DeadLetter{JobID: out.JobID, Offers: offers, Attempts: attempts, Err: err})
}

// noteRetry accounts one retry.
func (r *ResilientSink) noteRetry() {
	r.telemetry.sinkRetry()
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
}

// DeadLetters returns a copy of the dead-letter records accumulated so
// far, in the order the losses were recorded.
func (r *ResilientSink) DeadLetters() []DeadLetter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]DeadLetter(nil), r.dead...)
}

// Retries reports how many retry attempts the sink has made.
func (r *ResilientSink) Retries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// DeadLetteredOffers reports the total number of offers across all
// dead-letter records.
func (r *ResilientSink) DeadLetteredOffers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, d := range r.dead {
		n += len(d.Offers)
	}
	return n
}

// retryStats feeds Run's Stats integration.
func (r *ResilientSink) retryStats() (retries, deadOffers int) {
	return r.Retries(), r.DeadLetteredOffers()
}

// withOffers derives an Output whose result carries only the given offers,
// leaving the original result untouched for the parts already delivered.
func (o Output) withOffers(offers flexoffer.Set) Output {
	if o.Result == nil {
		return o
	}
	res := *o.Result
	res.Offers = offers
	o.Result = &res
	return o
}
