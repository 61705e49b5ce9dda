// Package admission implements overload protection for the daemon's HTTP
// surface: per-route-class concurrency limits with a bounded wait queue,
// explicit load shedding (429/503 + Retry-After) when the queue overflows
// or a queued request waits too long, and a drain mode for graceful
// shutdown. Operational probes (/healthz, /readyz, /metrics, pprof) are
// classified out of the limited classes entirely, so a daemon drowning in
// submits still answers its health checks — degradation stays observable.
//
// The middleware shape matches market.WithMiddleware, but mirabeld mounts
// it around the whole daemon handler so the scheduling and KPI routes are
// protected too.
package admission

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Class is a request's admission priority class. Each class has its own
// concurrency limit and wait queue, so cheap reads are never stuck behind
// a burst of submits and operational probes are never queued at all.
type Class int

const (
	// ClassOps: operational probes and telemetry (/healthz, /readyz,
	// /metrics, /debug/pprof). Never limited, queued or shed — an
	// overloaded daemon must stay observable.
	ClassOps Class = iota
	// ClassRead: read-only requests (GET/HEAD outside the ops set).
	ClassRead
	// ClassWrite: state-changing requests (submits, accepts, assigns).
	ClassWrite
	numClasses
)

// String renders the class as a bounded metric label value.
func (c Class) String() string {
	switch c {
	case ClassOps:
		return "ops"
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	default:
		return "other"
	}
}

// ShedReason names why a request was refused admission.
type ShedReason int

const (
	// ShedQueueFull: the class's wait queue was already at capacity; the
	// client should back off for roughly the Retry-After hint (429).
	ShedQueueFull ShedReason = iota
	// ShedWaitTimeout: the request was queued but no slot freed within
	// the class's wait budget (503).
	ShedWaitTimeout
	// ShedDraining: the controller is draining for shutdown and admits
	// nothing new (503).
	ShedDraining
	// ShedCancelled: the client gave up (context cancelled) while queued.
	ShedCancelled
	numReasons
)

// String renders the reason as a bounded metric label value.
func (r ShedReason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue_full"
	case ShedWaitTimeout:
		return "wait_timeout"
	case ShedDraining:
		return "draining"
	case ShedCancelled:
		return "cancelled"
	default:
		return "other"
	}
}

// Shed describes one refused admission: the HTTP status to answer with,
// the reason, and the Retry-After hint the response carries.
type Shed struct {
	// Status is the response status: 429 for queue overflow (the client
	// is sending faster than its share), 503 for wait timeout and drain
	// (the server is the bottleneck or going away).
	Status int
	// Reason names the shed cause.
	Reason ShedReason
	// RetryAfter is the backoff hint, rendered as whole seconds
	// (rounded up, minimum 1) in the Retry-After response header.
	RetryAfter time.Duration
}

// Limits bounds one admission class.
type Limits struct {
	// MaxConcurrent caps in-flight requests of the class; 0 disables
	// limiting for the class entirely (no queue, nothing shed).
	MaxConcurrent int
	// MaxQueue caps how many requests may wait for a slot beyond the
	// concurrency limit; an arrival past it is shed with 429. 0 means
	// no queue: everything past MaxConcurrent sheds immediately.
	MaxQueue int
	// MaxWait bounds how long a queued request waits for a slot before
	// shedding with 503 (default 1s). It is also the Retry-After hint on
	// the class's shed responses.
	MaxWait time.Duration
}

// withDefaults fills the zero-valued wait budget.
func (l Limits) withDefaults() Limits {
	if l.MaxWait <= 0 {
		l.MaxWait = time.Second
	}
	return l
}

// Config configures a Controller.
type Config struct {
	// Reads limits ClassRead; the zero value leaves reads unlimited.
	Reads Limits
	// Writes limits ClassWrite; the zero value leaves writes unlimited.
	Writes Limits
}

// DefaultClassify is the request classifier: the operational
// endpoints (/healthz, /readyz, /metrics, /debug/pprof/...) are ClassOps,
// other GET/HEAD requests are ClassRead, and everything else ClassWrite.
func DefaultClassify(r *http.Request) Class {
	switch r.URL.Path {
	case "/healthz", "/readyz", "/metrics":
		return ClassOps
	}
	if strings.HasPrefix(r.URL.Path, "/debug/pprof") {
		return ClassOps
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		return ClassRead
	}
	return ClassWrite
}

// ClassStats is a point-in-time snapshot of one class's limiter.
type ClassStats struct {
	// Admitted counts requests that got a slot (lifetime).
	Admitted uint64
	// Shed counts refused requests by reason (lifetime).
	Shed [numReasons]uint64
	// InFlight and Queued are the current occupancy and wait-queue depth.
	InFlight int64
	Queued   int64
}

// ShedTotal sums the per-reason shed counters.
func (s ClassStats) ShedTotal() uint64 {
	var n uint64
	for _, v := range s.Shed {
		n += v
	}
	return n
}

// limiter is one class's concurrency gate: a channel semaphore for slots
// plus atomic occupancy counters. A nil limiter means the class is
// unlimited.
type limiter struct {
	limits Limits
	slots  chan struct{}

	inFlight atomic.Int64
	queued   atomic.Int64
	admitted atomic.Uint64
	shed     [numReasons]atomic.Uint64
}

func newLimiter(l Limits) *limiter {
	l = l.withDefaults()
	if l.MaxConcurrent <= 0 {
		return nil
	}
	return &limiter{limits: l, slots: make(chan struct{}, l.MaxConcurrent)}
}

// admit tries to take a slot, waiting in the bounded queue when the class
// is saturated. It returns a release function on success, or the Shed
// describing the refusal. waitObserve, when non-nil, receives the queue
// wait in seconds for admitted-after-waiting requests.
func (l *limiter) admit(ctx context.Context, waitObserve func(float64)) (release func(), shed *Shed) {
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		l.inFlight.Add(1)
		return l.release, nil
	default:
	}
	if l.queued.Add(1) > int64(l.limits.MaxQueue) {
		l.queued.Add(-1)
		l.shed[ShedQueueFull].Add(1)
		return nil, &Shed{Status: http.StatusTooManyRequests, Reason: ShedQueueFull, RetryAfter: l.limits.MaxWait}
	}
	start := time.Now()
	timer := time.NewTimer(l.limits.MaxWait)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		l.queued.Add(-1)
		l.admitted.Add(1)
		l.inFlight.Add(1)
		if waitObserve != nil {
			waitObserve(time.Since(start).Seconds())
		}
		return l.release, nil
	case <-timer.C:
		l.queued.Add(-1)
		l.shed[ShedWaitTimeout].Add(1)
		return nil, &Shed{Status: http.StatusServiceUnavailable, Reason: ShedWaitTimeout, RetryAfter: l.limits.MaxWait}
	case <-ctx.Done():
		l.queued.Add(-1)
		l.shed[ShedCancelled].Add(1)
		return nil, &Shed{Status: http.StatusServiceUnavailable, Reason: ShedCancelled, RetryAfter: l.limits.MaxWait}
	}
}

// release frees the slot taken by a successful admit.
func (l *limiter) release() {
	l.inFlight.Add(-1)
	<-l.slots
}

// stats snapshots the limiter's counters.
func (l *limiter) stats() ClassStats {
	s := ClassStats{
		Admitted: l.admitted.Load(),
		InFlight: l.inFlight.Load(),
		Queued:   l.queued.Load(),
	}
	for i := range l.shed {
		s.Shed[i] = l.shed[i].Load()
	}
	return s
}

// Controller is the admission gate: it classifies requests, enforces each
// class's limits, and — once BeginDrain is called — sheds every non-ops
// request so a shutting-down daemon stops accepting new work while its
// in-flight requests finish.
type Controller struct {
	limiters [numClasses]*limiter
	draining atomic.Bool
	drainRA  time.Duration

	// opsAdmitted counts ops-class requests, which bypass limiting but
	// still show up in the admitted metric so traffic mix is visible.
	opsAdmitted atomic.Uint64

	// waitSeconds observes queue waits per class; nil until
	// RegisterMetrics installs the histogram vec.
	waitSeconds atomic.Pointer[obs.HistogramVec]
}

// NewController builds a Controller from cfg. Classes whose Limits have
// MaxConcurrent <= 0 are unlimited.
func NewController(cfg Config) *Controller {
	c := &Controller{}
	c.limiters[ClassRead] = newLimiter(cfg.Reads)
	c.limiters[ClassWrite] = newLimiter(cfg.Writes)
	c.drainRA = time.Second
	return c
}

// ClassOf reports the class DefaultClassify assigns to r.
func (c *Controller) ClassOf(r *http.Request) Class { return DefaultClassify(r) }

// BeginDrain flips the controller into drain mode: every subsequent
// non-ops request is shed with 503 + Retry-After, while requests already
// admitted keep their slots until they finish. Safe to call repeatedly.
func (c *Controller) BeginDrain() { c.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (c *Controller) Draining() bool { return c.draining.Load() }

// InFlight reports the total currently admitted requests across the
// limited classes.
func (c *Controller) InFlight() int64 {
	var n int64
	for _, l := range c.limiters {
		if l != nil {
			n += l.inFlight.Load()
		}
	}
	return n
}

// Stats snapshots one class's limiter counters (zero for unlimited
// classes, which never count or shed).
func (c *Controller) Stats(class Class) ClassStats {
	if class < 0 || class >= numClasses || c.limiters[class] == nil {
		if class == ClassOps {
			return ClassStats{Admitted: c.opsAdmitted.Load()}
		}
		return ClassStats{}
	}
	return c.limiters[class].stats()
}

// retryAfterSeconds renders d as the Retry-After header value: whole
// seconds, rounded up, minimum 1 (a zero hint would mean "retry now").
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// writeShed answers a refused request with the shed's status, a JSON
// error envelope matching the market API's, and the Retry-After hint.
func writeShed(w http.ResponseWriter, shed *Shed) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
	w.WriteHeader(shed.Status)
	fmt.Fprintf(w, "{\"error\":%q}\n", "admission: "+shed.Reason.String())
}

// Middleware wraps next with the admission gate. Its signature matches
// market.WithMiddleware, so it can sit on the market server directly; the
// daemon mounts it around the full handler instead so every non-ops route
// is protected.
func (c *Controller) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := DefaultClassify(r)
		if class == ClassOps {
			c.opsAdmitted.Add(1)
			next.ServeHTTP(w, r)
			return
		}
		if c.draining.Load() {
			l := c.limiters[class]
			if l != nil {
				l.shed[ShedDraining].Add(1)
			}
			writeShed(w, &Shed{Status: http.StatusServiceUnavailable, Reason: ShedDraining, RetryAfter: c.drainRA})
			return
		}
		l := c.limiters[class]
		if l == nil {
			next.ServeHTTP(w, r)
			return
		}
		release, shed := l.admit(r.Context(), c.waitObserver(class))
		if shed != nil {
			writeShed(w, shed)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// waitObserver returns the queue-wait callback for class, or nil before
// metrics registration.
func (c *Controller) waitObserver(class Class) func(float64) {
	vec := c.waitSeconds.Load()
	if vec == nil {
		return nil
	}
	return vec.With(class.String()).Observe
}
