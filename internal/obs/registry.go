package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// Sample is one scrape-time value of a sampled gauge family (see
// Registry.NewSampledGauge): a labelled float computed when the registry
// renders.
type Sample struct {
	// Labels identify the sample within its family; may be empty.
	Labels []Label
	// Value is the sample's value at collection time.
	Value float64
}

// family is one named metric family and knows how to render itself.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"

	// Exactly one of these is set.
	counter      *Counter
	counterFunc  func() uint64
	counterVec   *CounterVec
	gauge        *Gauge
	gaugeFunc    func() float64
	sampledGauge func() []Sample
	histogram    *Histogram
	histogramVec *HistogramVec
}

// Registry owns a set of named metric families and renders them as
// Prometheus text exposition or JSON. Metrics are created through the
// New* methods so every instrument is automatically part of the
// exposition; registering the same family name twice panics (it is a
// programming error, like a duplicate flag).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", f.name))
	}
	r.families[f.name] = f
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := new(Counter)
	r.register(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at render
// time — for monotonic totals someone else already counts (e.g. a WAL's
// append statistics), mirroring NewGaugeFunc for counters.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	r.register(&family{name: name, help: help, typ: "counter", counterFunc: fn})
}

// NewCounterVec registers and returns a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{vec[*Counter]{names: labelNames, newChild: func() *Counter { return new(Counter) }, children: make(map[string]*vecChild[*Counter])}}
	r.register(&family{name: name, help: help, typ: "counter", counterVec: v})
	return v
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := new(Gauge)
	r.register(&family{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed by fn at render
// time — the zero-bookkeeping way to export state someone else owns.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", gaugeFunc: fn})
}

// NewSampledGauge registers a gauge family whose labelled samples are
// computed by collect at render time, e.g. one sample per lifecycle state
// from a single store snapshot.
func (r *Registry) NewSampledGauge(name, help string, collect func() []Sample) {
	r.register(&family{name: name, help: help, typ: "gauge", sampledGauge: collect})
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (DefBuckets when nil).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, typ: "histogram", histogram: h})
	return h
}

// NewHistogramVec registers and returns a labelled histogram family with
// the given bucket upper bounds (DefBuckets when nil).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	newChild := func() *Histogram { return newHistogram(buckets) }
	v := &HistogramVec{vec[*Histogram]{names: labelNames, newChild: newChild, children: make(map[string]*vecChild[*Histogram])}}
	r.register(&family{name: name, help: help, typ: "histogram", histogramVec: v})
	return v
}

// sortedFamilies snapshots the family list ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), sorted by family name and label set so output is
// deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.counter.Value())
		case f.counterFunc != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.counterFunc())
		case f.counterVec != nil:
			for _, c := range f.counterVec.sorted() {
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(c.labels), c.metric.Value())
			}
		case f.gauge != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.gauge.Value())
		case f.gaugeFunc != nil:
			fmt.Fprintf(bw, "%s %s\n", f.name, formatFloat(f.gaugeFunc()))
		case f.sampledGauge != nil:
			for _, s := range sortedSamples(f.sampledGauge()) {
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(s.Labels), formatFloat(s.Value))
			}
		case f.histogram != nil:
			writePromHistogram(bw, f.name, nil, f.histogram.Snapshot())
		case f.histogramVec != nil:
			for _, c := range f.histogramVec.sorted() {
				writePromHistogram(bw, f.name, c.labels, c.metric.Snapshot())
			}
		}
	}
	return bw.Flush()
}

func sortedSamples(samples []Sample) []Sample {
	sort.Slice(samples, func(i, j int) bool {
		return labelString(samples[i].Labels) < labelString(samples[j].Labels)
	})
	return samples
}

// writePromHistogram writes one histogram child in the cumulative-bucket
// convention: le-labelled buckets, then _sum and _count.
func writePromHistogram(w io.Writer, name string, labels []Label, s HistogramSnapshot) {
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := append(append([]Label(nil), labels...), Label{Name: "le", Value: formatFloat(bound)})
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(le), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	inf := append(append([]Label(nil), labels...), Label{Name: "le", Value: "+Inf"})
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(inf), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labels), formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels), s.Count)
}

// jsonHistogram is the JSON shape of one histogram child.
type jsonHistogram struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"` // upper bound -> cumulative count
	Labels  map[string]string `json:"labels,omitempty"`
}

// jsonLabelled is the JSON shape of one labelled scalar sample.
type jsonLabelled struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Name] = l.Value
	}
	return m
}

func jsonHistogramValue(labels []Label, s HistogramSnapshot) jsonHistogram {
	h := jsonHistogram{Count: s.Count, Sum: s.Sum, Buckets: make(map[string]uint64, len(s.Bounds)+1), Labels: labelMap(labels)}
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		h.Buckets[formatFloat(bound)] = cum
	}
	h.Buckets["+Inf"] = cum + s.Counts[len(s.Bounds)]
	return h
}

// WriteJSON renders every family as one JSON object keyed by family name —
// the expvar-style exposition behind /metrics?format=json and flexextract's
// -stats-json. Scalars render as numbers, labelled families as arrays of
// {labels, value}, histograms as {count, sum, buckets}.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	for _, f := range r.sortedFamilies() {
		switch {
		case f.counter != nil:
			out[f.name] = f.counter.Value()
		case f.counterFunc != nil:
			out[f.name] = f.counterFunc()
		case f.counterVec != nil:
			var vals []jsonLabelled
			for _, c := range f.counterVec.sorted() {
				vals = append(vals, jsonLabelled{Labels: labelMap(c.labels), Value: float64(c.metric.Value())})
			}
			out[f.name] = vals
		case f.gauge != nil:
			out[f.name] = f.gauge.Value()
		case f.gaugeFunc != nil:
			out[f.name] = f.gaugeFunc()
		case f.sampledGauge != nil:
			var vals []jsonLabelled
			for _, s := range sortedSamples(f.sampledGauge()) {
				vals = append(vals, jsonLabelled{Labels: labelMap(s.Labels), Value: s.Value})
			}
			out[f.name] = vals
		case f.histogram != nil:
			out[f.name] = jsonHistogramValue(nil, f.histogram.Snapshot())
		case f.histogramVec != nil:
			var vals []jsonHistogram
			for _, c := range f.histogramVec.sorted() {
				vals = append(vals, jsonHistogramValue(c.labels, c.metric.Snapshot()))
			}
			out[f.name] = vals
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves the registry over HTTP: Prometheus text by default, JSON
// when the request carries ?format=json. Non-GET methods get 405.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
