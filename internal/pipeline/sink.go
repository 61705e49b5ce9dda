package pipeline

import (
	"context"
	"sort"
	"sync"

	"repro/internal/flexoffer"
	"repro/internal/market"
)

// Sink consumes finished extractions. Put is called directly from worker
// goroutines, so implementations must be safe for concurrent use; a non-nil
// error aborts the whole batch (Run returns it).
type Sink interface {
	Put(ctx context.Context, out Output) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ctx context.Context, out Output) error

// Put implements Sink.
func (f SinkFunc) Put(ctx context.Context, out Output) error { return f(ctx, out) }

// Discard drops every output, keeping only the pipeline's own counters —
// useful for benchmarks and dry runs.
var Discard Sink = SinkFunc(func(context.Context, Output) error { return nil })

// CollectSink accumulates every output in memory. The zero value is ready
// to use.
type CollectSink struct {
	mu      sync.Mutex
	outputs []Output
}

// Put implements Sink.
func (c *CollectSink) Put(_ context.Context, out Output) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outputs = append(c.outputs, out)
	return nil
}

// Outputs returns the collected outputs in completion order.
func (c *CollectSink) Outputs() []Output {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Output(nil), c.outputs...)
}

// Offers returns every collected offer as one set, sorted by ID so the
// result is deterministic regardless of worker interleaving.
func (c *CollectSink) Offers() flexoffer.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	var set flexoffer.Set
	for _, out := range c.outputs {
		set = append(set, out.Result.Offers...)
	}
	sort.Slice(set, func(i, j int) bool { return set[i].ID < set[j].ID })
	return set
}

// StoreSink bulk-submits every extracted offer straight into a
// market.Store — the mirabeld ingest path. Individual offer rejections
// (duplicates, lapsed deadlines) are counted, not fatal; the batch keeps
// flowing. The zero value with a Store set is ready to use.
type StoreSink struct {
	Store *market.Store

	mu        sync.Mutex
	submitted int
	rejected  int
	firstErr  error
}

// Put implements Sink. Store rejections are semantic verdicts (duplicate
// IDs, lapsed deadlines) — retrying them cannot succeed — so they are
// counted here rather than surfaced as errors for a ResilientSink to
// retry.
func (s *StoreSink) Put(_ context.Context, out Output) error {
	res := s.Store.SubmitBatch(out.Result.Offers)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted += res.Accepted
	s.rejected += res.Rejected()
	if s.firstErr == nil {
		s.firstErr = res.FirstErr()
	}
	return nil
}

// Counts reports how many offers the store accepted and rejected.
func (s *StoreSink) Counts() (submitted, rejected int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitted, s.rejected
}

// FirstErr reports the first rejection observed, nil when every offer was
// accepted.
func (s *StoreSink) FirstErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}
