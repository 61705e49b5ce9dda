// Package obs is the repository's observability layer: metrics, a metric
// registry with Prometheus-text and JSON exposition, a leveled structured
// logger, and HTTP server middleware — all standard-library only, so every
// serving layer (internal/market, internal/pipeline, cmd/mirabeld,
// cmd/flexextract) can be instrumented without pulling in a dependency.
//
// # Metrics
//
// Three primitive instruments cover the repo's needs:
//
//   - Counter: a monotonically increasing count (requests served, jobs
//     failed). Lock-free; safe for concurrent use.
//   - Gauge: a value that goes up and down (workers busy, offers in a
//     lifecycle state). GaugeFunc and sampled-gauge families compute their
//     value at scrape time, which is how store-level state counts are
//     exported without double bookkeeping.
//   - Histogram: a bucketed distribution with sum and count, rendered in
//     Prometheus's cumulative-bucket convention — the latency instrument.
//
// Labelled variants (CounterVec, HistogramVec) key children by label
// values, e.g. one request counter per (route, method, status class). A
// family holds at most 1,024 children; any further label combination is
// counted under one overflow child whose labels are all "other".
//
// # Registry and exposition
//
// A Registry owns a set of named metric families and renders them all:
// WritePrometheus emits the text exposition format scraped from /metrics,
// WriteJSON emits an expvar-style JSON object (the flexextract -stats-json
// output), and Handler serves both over HTTP (JSON when the request asks
// with ?format=json). Output is sorted by family and label so renders are
// deterministic and golden-testable.
//
// # Logging
//
// Logger writes leveled key=value lines (logfmt style):
//
//	ts=2012-06-04T00:00:00Z level=info msg="seed done" offers=412 wall=180ms
//
// With derives a child logger with bound fields; a nil *Logger is a valid
// no-op receiver, so instrumented code never needs to guard its log calls.
//
// # HTTP middleware
//
// NewHTTPMetrics allocates the standard server instruments (request counts
// by route/method/status class, per-route latency histograms, in-flight
// gauge, panic counter) and Middleware wraps an http.Handler to feed them,
// recovering panics into 500 responses so one bad request cannot take down
// the daemon.
package obs
