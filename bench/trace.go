package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	iofs "io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanClient      spanKind = iota // the bench's own request: sent → done (due kept alongside)
	spanOuter                       // server outer handler, outside the admission gate
	spanAdmitted                    // handler inside the admission gate
	spanRoute                       // route handler (market, sched or kpi API)
	spanWALWrite                    // File.Write on a shard-NNN WAL segment
	spanWALSync                     // File.Sync on a shard-NNN WAL segment
	spanWALRead                     // File.Read on any journal file
	spanSnapshot                    // snapshot tmp write, sync or rename
	spanLedgerWrite                 // File.Write under sched/
	spanLedgerSync                  // File.Sync under sched/
	spanOpenJournal                 // market.OpenJournaled
	spanReadCSV                     // timeseries.ReadCSV of one seed file
	spanHousehold                   // Extract of a 15-min household approach
	spanAppliance                   // Extract of a 1-min appliance approach
	spanSink                        // pipeline Sink.Put
	spanPipeline                    // one pipeline run, start to finish
	spanSetup                       // a set-up that reads input series: seeding, or loading the extract inputs
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client", "server.outer", "server.admitted", "route",
	"wal.write", "wal.fsync", "wal.read", "wal.snapshot",
	"sched.ledger_write", "sched.ledger_fsync", "market.open_journaled",
	"timeseries.readcsv", "core.household", "core.appliance", "pipeline.sink", "pipeline.run",
	"setup",
}

// MarshalJSON renders the kind by name in trace files.
func (k spanKind) MarshalJSON() ([]byte, error) { return json.Marshal(spanNames[k]) }

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; Req joins the spans of one request (-1: none) and
// Shard names the store shard a WAL span or write request belongs to
// (-1: none).
type span struct {
	Kind  spanKind `json:"kind"`
	Req   int64    `json:"req"`
	Shard int      `json:"shard"`
	Start int64    `json:"start_ns"`
	End   int64    `json:"end_ns"`
	Due   int64    `json:"due_ns,omitempty"`
}

func (s span) iv() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends. Recording is gated by
// on, so one assembled stack serves both the untraced and the traced pass.
// A nil *tracer records nothing and its wrappers return what they wrap.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// now is the time since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span if recording is on.
func (t *tracer) add(s span) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn and records it as a span of kind k.
func (t *tracer) timed(k spanKind, shard int, fn func()) {
	if !t.active() {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(span{Kind: k, Req: -1, Shard: shard, Start: start, End: t.now()})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans, plus the client spans of the traced pass, to
// path as JSON.
func (t *tracer) writeFile(path, workload string, seed int64, client []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	all := append(t.snapshot(), client...)
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		EpochNs  int64  `json:"epoch_unix_ns"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.epoch.UnixNano(), all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- request spans -------------------------------------------------------

// reqHeader carries the bench's request ID from client to server in traced
// runs, joining the client span to the server spans.
const reqHeader = "X-Bench-Req"

type reqIDKey struct{}

func reqIDOf(ctx context.Context) (int64, bool) {
	id, ok := ctx.Value(reqIDKey{}).(int64)
	return id, ok
}

// outer wraps the whole server: it reads the request ID, puts it in the
// context for the inner wrappers, and records the server's outer span.
func (t *tracer) outer(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil || !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		t.add(span{Kind: spanOuter, Req: id, Shard: -1, Start: start, End: t.now()})
	})
}

// inner wraps a handler below the outer one and records a span of kind k
// for requests that carry an ID. shardOf, when non-nil, maps the request's
// offer ID onto its store shard so WAL spans can be attributed to it.
func (t *tracer) inner(k spanKind, next http.Handler, shardOf func(string) int) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := reqIDOf(r.Context())
		if !ok || !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		shard := -1
		if shardOf != nil {
			if offer := offerIDOf(r); offer != "" {
				shard = shardOf(offer)
			}
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{Kind: k, Req: id, Shard: shard, Start: start, End: t.now()})
	})
}

// offerIDOf extracts the offer a market request touches: the path ID of
// /offers/{id}[/verb], or the "id" of a submitted offer's body, which it
// restores for the handler.
func offerIDOf(r *http.Request) string {
	if rest, ok := strings.CutPrefix(r.URL.Path, "/offers/"); ok {
		if i := strings.LastIndex(rest, "/"); i >= 0 {
			switch rest[i+1:] {
			case "accept", "reject", "assign":
				return rest[:i]
			}
		}
		return rest
	}
	if r.URL.Path != "/offers" || r.Method != http.MethodPost || r.Body == nil {
		return ""
	}
	body, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return ""
	}
	var head struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &head) != nil {
		return ""
	}
	return head.ID
}

// --- journal spans -------------------------------------------------------

// traceFS times every write, fsync, read and snapshot rename the journal
// and the scheduler ledger make, classifying each by its path.
type traceFS struct {
	wal.FS
	tr *tracer
}

// fileClass is what a journal path holds.
type fileClass uint8

const (
	classWAL fileClass = iota
	classSnapshot
	classLedger
)

// classify maps a journal path onto its class and shard (-1 outside a
// shard-NNN directory).
func classify(path string) (fileClass, int) {
	shard := -1
	cls := classWAL
	for _, part := range strings.Split(filepath.ToSlash(path), "/") {
		if digits, ok := strings.CutPrefix(part, "shard-"); ok && len(digits) == 3 {
			if k, err := strconv.Atoi(digits); err == nil {
				shard = k
			}
		}
		if part == "sched" {
			cls = classLedger
		}
	}
	if strings.HasPrefix(filepath.Base(path), "snap-") {
		cls = classSnapshot
	}
	return cls, shard
}

// OpenFile implements wal.FS.
func (f traceFS) OpenFile(name string, flag int, perm iofs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	cls, shard := classify(name)
	return &traceFile{File: file, tr: f.tr, cls: cls, shard: shard}, nil
}

// Rename implements wal.FS; renames publish snapshots.
func (f traceFS) Rename(oldpath, newpath string) error {
	var err error
	_, shard := classify(newpath)
	f.tr.timed(spanSnapshot, shard, func() { err = f.FS.Rename(oldpath, newpath) })
	return err
}

// traceFile times the calls the log makes on one file.
type traceFile struct {
	wal.File
	tr    *tracer
	cls   fileClass
	shard int
}

var (
	writeKind = [...]spanKind{classWAL: spanWALWrite, classSnapshot: spanSnapshot, classLedger: spanLedgerWrite}
	syncKind  = [...]spanKind{classWAL: spanWALSync, classSnapshot: spanSnapshot, classLedger: spanLedgerSync}
)

func (f *traceFile) Write(p []byte) (n int, err error) {
	f.tr.timed(writeKind[f.cls], f.shard, func() { n, err = f.File.Write(p) })
	return n, err
}

func (f *traceFile) Sync() (err error) {
	f.tr.timed(syncKind[f.cls], f.shard, func() { err = f.File.Sync() })
	return err
}

func (f *traceFile) Read(p []byte) (n int, err error) {
	f.tr.timed(spanWALRead, f.shard, func() { n, err = f.File.Read(p) })
	return n, err
}

// attribute assigns each WAL span to the write request that caused it and
// returns the owning request ID per span (-1: background work such as a
// scheduler assignment, seeding or a snapshot). reqs are the route spans
// of write requests with the shard their offer routes to. A shard's write
// lock serialises its appends and every write request appends exactly one
// event, so a segment write goes to the earliest-started request on that
// shard that encloses it and has no write yet, and an fsync to the request
// that made the shard's last write, if it encloses the fsync.
func attribute(reqs, walSpans []span) []int64 {
	byShard := map[int][]span{}
	for _, r := range reqs {
		byShard[r.Shard] = append(byShard[r.Shard], r)
	}
	for _, rs := range byShard {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	}
	order := make([]int, len(walSpans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return walSpans[order[a]].Start < walSpans[order[b]].Start })

	owner := make([]int64, len(walSpans))
	wrote := map[int64]bool{}
	lastWriter := map[int]span{}
	lo := map[int]int{}
	encloses := func(r, s span) bool { return r.Start <= s.Start && s.End <= r.End }
	for _, i := range order {
		s := walSpans[i]
		owner[i] = -1
		switch s.Kind {
		case spanWALWrite:
			rs := byShard[s.Shard]
			j := lo[s.Shard]
			for j < len(rs) && rs[j].End < s.Start {
				j++
			}
			lo[s.Shard] = j
			delete(lastWriter, s.Shard)
			for ; j < len(rs) && rs[j].Start <= s.Start; j++ {
				if !wrote[rs[j].Req] && encloses(rs[j], s) {
					owner[i] = rs[j].Req
					wrote[rs[j].Req] = true
					lastWriter[s.Shard] = rs[j]
					break
				}
			}
		case spanWALSync:
			if r, ok := lastWriter[s.Shard]; ok && encloses(r, s) {
				owner[i] = r.Req
			}
		}
	}
	return owner
}

// --- extraction spans ----------------------------------------------------

// tracedExtractor times Extract on the wrapped extractor.
type tracedExtractor struct {
	core.Extractor
	tr   *tracer
	kind spanKind
}

func (e tracedExtractor) Extract(s *timeseries.Series) (res *core.Result, err error) {
	e.tr.timed(e.kind, -1, func() { res, err = e.Extractor.Extract(s) })
	return res, err
}

// traceExtractor wraps ex when tracing is configured.
func (t *tracer) traceExtractor(ex core.Extractor, kind spanKind) core.Extractor {
	if t == nil {
		return ex
	}
	return tracedExtractor{Extractor: ex, tr: t, kind: kind}
}

// tracedSink times Put on the wrapped sink.
type tracedSink struct {
	pipeline.Sink
	tr *tracer
}

func (s tracedSink) Put(ctx context.Context, out pipeline.Output) (err error) {
	s.tr.timed(spanSink, -1, func() { err = s.Sink.Put(ctx, out) })
	return err
}

// traceSink wraps sink when tracing is configured.
func (t *tracer) traceSink(sink pipeline.Sink) pipeline.Sink {
	if t == nil {
		return sink
	}
	return tracedSink{Sink: sink, tr: t}
}

// readCSV reads one series file, timed as a timeseries.readcsv span.
func (t *tracer) readCSV(path string) (*timeseries.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s *timeseries.Series
	t.timed(spanReadCSV, -1, func() { s, err = timeseries.ReadCSV(f) })
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return s, nil
}
