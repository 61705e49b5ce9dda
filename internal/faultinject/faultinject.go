// Package faultinject provides deterministic, seeded fault injection for
// the extraction-to-market path: a fault Profile describes how often the
// submission path should fail and in which way (transient errors, added
// latency, panics, partially delivered batches), and a Schedule turns the
// profile into a reproducible stream of per-operation fault Decisions.
//
// The same seed always yields the same decision sequence, so a failure
// observed under load ("offer lost at decision 814") can be replayed
// exactly: re-run with the same -fault-profile string and the schedule
// injects the identical fault sequence. Under concurrency the *sequence*
// of decisions is fixed; which caller draws which decision still depends
// on goroutine interleaving, which is exactly the non-determinism a soak
// test wants to explore while keeping the fault pattern pinned.
//
// Two adapters consume a Schedule: WrapSink wraps any pipeline.Sink
// (sink.go), and Middleware wraps an http.Handler (middleware.go) so
// mirabeld can degrade its own API opt-in via -fault-profile. Both
// compose with the observability layer — injected faults surface in the
// obs request metrics and in the faultinject_* families registered by
// RegisterMetrics.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrInjected marks every synthetic failure produced by this package, so
// retry paths and tests can tell injected faults from real ones with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind classifies one injected fault.
type Kind int

// The fault kinds a Decision can carry, in drawing order.
const (
	// None means the operation proceeds untouched.
	None Kind = iota
	// Error fails the operation immediately with ErrInjected.
	Error
	// Latency delays the operation, then lets it proceed.
	Latency
	// Panic panics mid-operation, exercising recovery paths.
	Panic
	// Partial delivers only part of a batch and fails the rest —
	// the classic half-written bulk insert. Adapters that have no
	// batch to split (the HTTP middleware) degrade it to Error.
	Partial
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Latency:
		return "latency"
	case Panic:
		return "panic"
	case Partial:
		return "partial"
	default:
		return "unknown"
	}
}

// kinds lists every injectable kind, for metrics and counts.
var kinds = []Kind{None, Error, Latency, Panic, Partial}

// Profile is a parsed fault profile: the per-operation probability of each
// fault kind plus the schedule seed. The zero value injects nothing.
type Profile struct {
	// Seed seeds the decision stream; the same seed replays the same
	// sequence of decisions.
	Seed int64
	// ErrorRate is the probability of an injected error, in [0,1].
	ErrorRate float64
	// LatencyRate is the probability of injected latency, in [0,1].
	LatencyRate float64
	// MaxLatency bounds one injected delay; the actual delay is drawn
	// uniformly from (0, MaxLatency]. Zero disables latency even when
	// LatencyRate is set.
	MaxLatency time.Duration
	// PanicRate is the probability of an injected panic, in [0,1].
	PanicRate float64
	// PartialRate is the probability of a partial-batch fault, in [0,1].
	PartialRate float64
}

// ParseProfile parses the -fault-profile flag syntax: comma-separated
// key=value fields, e.g.
//
//	seed=42,error=0.1,latency=0.05:20ms,panic=0.01,partial=0.1
//
// where latency takes rate:maxDuration. Unknown keys, malformed values and
// rates summing above 1 are errors; omitted keys default to zero.
func ParseProfile(s string) (Profile, error) {
	var p Profile
	if strings.TrimSpace(s) == "" {
		return p, fmt.Errorf("faultinject: empty profile")
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("faultinject: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "error":
			p.ErrorRate, err = parseRate(val)
		case "panic":
			p.PanicRate, err = parseRate(val)
		case "partial":
			p.PartialRate, err = parseRate(val)
		case "latency":
			rate, durS, ok := strings.Cut(val, ":")
			if !ok {
				return p, fmt.Errorf("faultinject: latency wants rate:maxDuration, got %q", val)
			}
			if p.LatencyRate, err = parseRate(rate); err == nil {
				p.MaxLatency, err = time.ParseDuration(durS)
			}
		default:
			return p, fmt.Errorf("faultinject: unknown profile key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("faultinject: %s: %v", key, err)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// parseRate parses a probability in [0,1].
func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("rate %v outside [0,1]", r)
	}
	return r, nil
}

// Validate checks that every rate is a probability and that the rates
// leave room for fault-free operations (their sum must not exceed 1).
func (p Profile) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{{"error", p.ErrorRate}, {"latency", p.LatencyRate}, {"panic", p.PanicRate}, {"partial", p.PartialRate}} {
		if r.rate < 0 || r.rate > 1 || r.rate != r.rate { // NaN-safe
			return fmt.Errorf("faultinject: %s rate %v outside [0,1]", r.name, r.rate)
		}
	}
	if sum := p.ErrorRate + p.LatencyRate + p.PanicRate + p.PartialRate; sum > 1 {
		return fmt.Errorf("faultinject: rates sum to %.3f > 1", sum)
	}
	if p.LatencyRate > 0 && p.MaxLatency <= 0 {
		return fmt.Errorf("faultinject: latency rate %.3f with non-positive max duration", p.LatencyRate)
	}
	if p.MaxLatency < 0 {
		return fmt.Errorf("faultinject: negative max latency %v", p.MaxLatency)
	}
	return nil
}

// String renders the profile in the ParseProfile syntax, so a schedule's
// provenance can be logged and replayed verbatim.
func (p Profile) String() string {
	fields := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.ErrorRate > 0 {
		fields = append(fields, fmt.Sprintf("error=%g", p.ErrorRate))
	}
	if p.LatencyRate > 0 {
		fields = append(fields, fmt.Sprintf("latency=%g:%s", p.LatencyRate, p.MaxLatency))
	}
	if p.PanicRate > 0 {
		fields = append(fields, fmt.Sprintf("panic=%g", p.PanicRate))
	}
	if p.PartialRate > 0 {
		fields = append(fields, fmt.Sprintf("partial=%g", p.PartialRate))
	}
	return strings.Join(fields, ",")
}

// Decision is one drawn fault: what to inject into the next operation.
type Decision struct {
	// Kind is the fault to inject; None means proceed untouched.
	Kind Kind
	// Latency is the delay to impose when Kind is Latency.
	Latency time.Duration
}

// Schedule is a deterministic stream of fault decisions drawn from a
// seeded source. All methods are safe for concurrent use; concurrent
// callers consume the one fixed sequence in arrival order.
type Schedule struct {
	profile Profile

	mu     sync.Mutex
	rng    *rand.Rand      // guarded by mu
	drawn  uint64          // guarded by mu: total decisions handed out
	counts map[Kind]uint64 // guarded by mu: decisions by kind
}

// NewSchedule builds the decision stream for a validated profile.
// Profiles that fail Validate panic — they are programming errors, caught
// earlier by ParseProfile on the flag path.
func NewSchedule(p Profile) *Schedule {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Schedule{
		profile: p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		counts:  make(map[Kind]uint64, len(kinds)),
	}
}

// Next draws the next fault decision. The sequence depends only on the
// profile (seed and rates), never on timing.
func (s *Schedule) Next() Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drawn++
	d := Decision{Kind: None}
	u := s.rng.Float64()
	switch {
	case u < s.profile.ErrorRate:
		d.Kind = Error
	case u < s.profile.ErrorRate+s.profile.LatencyRate:
		d.Kind = Latency
		// A second draw, made under the same lock, keeps the stream
		// deterministic: decision i always costs the same number of
		// source values.
		d.Latency = time.Duration(s.rng.Float64() * float64(s.profile.MaxLatency))
		if d.Latency <= 0 {
			d.Latency = time.Nanosecond
		}
	case u < s.profile.ErrorRate+s.profile.LatencyRate+s.profile.PanicRate:
		d.Kind = Panic
	case u < s.profile.ErrorRate+s.profile.LatencyRate+s.profile.PanicRate+s.profile.PartialRate:
		d.Kind = Partial
	}
	s.counts[d.Kind]++
	return d
}

// Counts reports how many decisions of each kind have been drawn so far,
// keyed by Kind.String(), plus the total under "total".
func (s *Schedule) Counts() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(kinds)+1)
	for _, k := range kinds {
		out[k.String()] = s.counts[k]
	}
	out["total"] = s.drawn
	return out
}

// RegisterMetrics exposes the schedule's decision counts on reg as the
// sampled gauge family faultinject_decisions{kind=...}, so injected
// faults are visible on the same /metrics scrape as the request and
// pipeline metrics they perturb.
func RegisterMetrics(reg *obs.Registry, s *Schedule) {
	reg.NewSampledGauge("faultinject_decisions",
		"Fault decisions drawn from the -fault-profile schedule, by kind.",
		func() []obs.Sample {
			counts := s.Counts()
			names := make([]string, 0, len(counts))
			for name := range counts {
				if name != "total" {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			samples := make([]obs.Sample, 0, len(names))
			for _, name := range names {
				samples = append(samples, obs.Sample{
					Labels: []obs.Label{{Name: "kind", Value: name}},
					Value:  float64(counts[name]),
				})
			}
			return samples
		})
}
