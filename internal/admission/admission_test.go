package admission

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// blockingHandler parks every request on a gate channel so tests control
// exactly how many requests are in flight.
type blockingHandler struct {
	gate    chan struct{}
	entered atomic.Int64
}

func (h *blockingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.entered.Add(1)
	<-h.gate
	w.WriteHeader(http.StatusOK)
}

// get runs one request through the handler and returns the recorder.
func doReq(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
	return rr
}

func TestDefaultClassify(t *testing.T) {
	cases := []struct {
		method, path string
		want         Class
	}{
		{"GET", "/healthz", ClassOps},
		{"GET", "/readyz", ClassOps},
		{"GET", "/metrics", ClassOps},
		{"GET", "/debug/pprof/profile", ClassOps},
		{"GET", "/offers", ClassRead},
		{"HEAD", "/stats", ClassRead},
		{"GET", "/kpi", ClassRead},
		{"POST", "/offers", ClassWrite},
		{"POST", "/schedule/run", ClassWrite},
		{"DELETE", "/offers/x", ClassWrite},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(tc.method, tc.path, nil)
		if got := DefaultClassify(r); got != tc.want {
			t.Errorf("DefaultClassify(%s %s) = %v, want %v", tc.method, tc.path, got, tc.want)
		}
	}
}

// TestAdmitUnderLimit: requests under the concurrency limit pass without
// queueing, and releasing a slot readmits.
func TestAdmitUnderLimit(t *testing.T) {
	c := NewController(Config{Writes: Limits{MaxConcurrent: 2, MaxQueue: 0, MaxWait: 10 * time.Millisecond}})
	inner := &blockingHandler{gate: make(chan struct{})}
	h := c.Middleware(inner)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doReq(h, "POST", "/offers")
		}()
	}
	waitFor(t, func() bool { return inner.entered.Load() == 2 })
	if got := c.Stats(ClassWrite).InFlight; got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Third arrival with no queue sheds immediately.
	rr := doReq(h, "POST", "/offers")
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit request = %d, want 429", rr.Code)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "queue_full") {
		t.Fatalf("shed body %q not a queue_full envelope (err %v)", rr.Body.String(), err)
	}

	close(inner.gate)
	wg.Wait()
	waitFor(t, func() bool { return c.Stats(ClassWrite).InFlight == 0 })

	rr = doReq(h, "POST", "/offers")
	if rr.Code != http.StatusOK {
		t.Fatalf("post-release request = %d, want 200", rr.Code)
	}
	st := c.Stats(ClassWrite)
	if st.Admitted != 3 || st.Shed[ShedQueueFull] != 1 {
		t.Fatalf("stats = %+v, want 3 admitted / 1 queue_full", st)
	}
}

// TestQueueAdmitsWhenSlotFrees: a queued request gets the slot a finishing
// request releases, and the wait histogram observes it once registered.
func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	c := NewController(Config{Writes: Limits{MaxConcurrent: 1, MaxQueue: 1, MaxWait: 2 * time.Second}})
	reg := obs.NewRegistry()
	RegisterMetrics(reg, c)
	inner := &blockingHandler{gate: make(chan struct{}, 1)}
	h := c.Middleware(inner)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); doReq(h, "POST", "/offers") }()
	waitFor(t, func() bool { return inner.entered.Load() == 1 })

	codes := make(chan int, 1)
	wg.Add(1)
	go func() { defer wg.Done(); codes <- doReq(h, "POST", "/offers").Code }()
	waitFor(t, func() bool { return c.Stats(ClassWrite).Queued == 1 })

	// Free both the first and (transitively) the queued request.
	inner.gate <- struct{}{}
	inner.gate <- struct{}{}
	wg.Wait()
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("queued request = %d, want 200", code)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `admission_wait_seconds_count{class="write"} 1`) {
		t.Errorf("wait histogram did not observe the queued admit:\n%s", grepLines(sb.String(), "admission_wait_seconds_count"))
	}
}

// TestWaitTimeoutSheds503: a queued request that never gets a slot sheds
// with 503 wait_timeout after MaxWait.
func TestWaitTimeoutSheds503(t *testing.T) {
	c := NewController(Config{Writes: Limits{MaxConcurrent: 1, MaxQueue: 4, MaxWait: 15 * time.Millisecond}})
	inner := &blockingHandler{gate: make(chan struct{})}
	defer close(inner.gate)
	h := c.Middleware(inner)

	go doReq(h, "POST", "/offers")
	waitFor(t, func() bool { return inner.entered.Load() == 1 })

	rr := doReq(h, "POST", "/offers")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request = %d, want 503", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "wait_timeout") {
		t.Fatalf("body %q, want wait_timeout envelope", rr.Body.String())
	}
	if secs, err := strconv.Atoi(rr.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want >= 1 whole second", rr.Header().Get("Retry-After"))
	}
	if got := c.Stats(ClassWrite).Shed[ShedWaitTimeout]; got != 1 {
		t.Fatalf("wait_timeout sheds = %d, want 1", got)
	}
}

// TestShedRetryAfterIsMaxWait: queue-full and wait-timeout sheds answer
// Retry-After with the class's MaxWait in whole seconds, rounded up,
// minimum 1.
func TestShedRetryAfterIsMaxWait(t *testing.T) {
	cases := []struct {
		maxWait time.Duration
		want    string
	}{
		{5 * time.Millisecond, "1"},
		{1500 * time.Millisecond, "2"},
	}
	sheds := []struct {
		name     string
		maxQueue int
		status   int
	}{
		{"queue_full", 0, http.StatusTooManyRequests},
		{"wait_timeout", 1, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		for _, sh := range sheds {
			t.Run(sh.name+"/"+tc.maxWait.String(), func(t *testing.T) {
				t.Parallel()
				c := NewController(Config{Writes: Limits{MaxConcurrent: 1, MaxQueue: sh.maxQueue, MaxWait: tc.maxWait}})
				inner := &blockingHandler{gate: make(chan struct{})}
				defer close(inner.gate)
				h := c.Middleware(inner)
				go doReq(h, "POST", "/offers")
				waitFor(t, func() bool { return inner.entered.Load() == 1 })

				rr := doReq(h, "POST", "/offers")
				if rr.Code != sh.status || !strings.Contains(rr.Body.String(), sh.name) {
					t.Fatalf("shed = %d %q, want %d %s", rr.Code, rr.Body.String(), sh.status, sh.name)
				}
				if got := rr.Header().Get("Retry-After"); got != tc.want {
					t.Fatalf("Retry-After = %q, want %q for MaxWait %v", got, tc.want, tc.maxWait)
				}
			})
		}
	}
}

// TestDrainShedsNonOps: after BeginDrain, reads and writes shed with 503
// draining while ops requests still pass.
func TestDrainShedsNonOps(t *testing.T) {
	c := NewController(Config{
		Reads:  Limits{MaxConcurrent: 8, MaxQueue: 8},
		Writes: Limits{MaxConcurrent: 8, MaxQueue: 8},
	})
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	h := c.Middleware(ok)

	c.BeginDrain()
	for _, req := range []struct{ method, path string }{{"POST", "/offers"}, {"GET", "/offers"}} {
		rr := doReq(h, req.method, req.path)
		if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "draining") {
			t.Fatalf("%s %s during drain = %d %q, want 503 draining", req.method, req.path, rr.Code, rr.Body.String())
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Fatal("drain shed missing Retry-After")
		}
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if rr := doReq(h, "GET", path); rr.Code != http.StatusOK {
			t.Fatalf("GET %s during drain = %d, want 200 (ops bypass)", path, rr.Code)
		}
	}
	if got := c.Stats(ClassWrite).Shed[ShedDraining]; got != 1 {
		t.Fatalf("draining sheds (write) = %d, want 1", got)
	}
}

// TestOpsNeverQueued: with every write slot taken, ops probes still
// answer immediately.
func TestOpsNeverQueued(t *testing.T) {
	c := NewController(Config{Writes: Limits{MaxConcurrent: 1, MaxQueue: 0, MaxWait: 50 * time.Millisecond}})
	inner := &blockingHandler{gate: make(chan struct{})}
	defer close(inner.gate)
	mux := http.NewServeMux()
	mux.Handle("/offers", inner)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	h := c.Middleware(mux)

	go doReq(h, "POST", "/offers")
	waitFor(t, func() bool { return inner.entered.Load() == 1 })

	done := make(chan int, 1)
	go func() { done <- doReq(h, "GET", "/healthz").Code }()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("/healthz under write saturation = %d, want 200", code)
		}
	case <-time.After(time.Second):
		t.Fatal("/healthz blocked behind saturated write class")
	}
	if got := c.Stats(ClassOps).Admitted; got != 1 {
		t.Fatalf("ops admitted = %d, want 1", got)
	}
}

// TestConcurrencyCapHolds is the stress case: many concurrent requests
// against a small limit; the handler-observed concurrency never exceeds
// MaxConcurrent and every request either succeeds or sheds explicitly.
func TestConcurrencyCapHolds(t *testing.T) {
	const limit = 4
	c := NewController(Config{Writes: Limits{MaxConcurrent: limit, MaxQueue: 8, MaxWait: 200 * time.Millisecond}})
	var inFlight, peak atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		w.WriteHeader(http.StatusOK)
	})
	h := c.Middleware(inner)

	const n = 64
	var wg sync.WaitGroup
	var ok200, shed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch code := doReq(h, "POST", "/offers").Code; code {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				shed.Add(1)
			default:
				t.Errorf("unexpected status %d", code)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > limit {
		t.Fatalf("observed concurrency %d exceeds limit %d", got, limit)
	}
	if ok200.Load()+shed.Load() != n {
		t.Fatalf("accounting leak: %d ok + %d shed != %d", ok200.Load(), shed.Load(), n)
	}
	st := c.Stats(ClassWrite)
	if st.Admitted != uint64(ok200.Load()) || st.ShedTotal() != uint64(shed.Load()) {
		t.Fatalf("controller stats %+v disagree with client view (%d ok, %d shed)", st, ok200.Load(), shed.Load())
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("occupancy not drained: %+v", st)
	}
}

// TestMetricsFamilies: the admission_* families render with the expected
// bounded label sets.
func TestMetricsFamilies(t *testing.T) {
	c := NewController(Config{Writes: Limits{MaxConcurrent: 1, MaxQueue: 0, MaxWait: 10 * time.Millisecond}})
	reg := obs.NewRegistry()
	RegisterMetrics(reg, c)
	h := c.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }))
	doReq(h, "POST", "/offers")
	doReq(h, "GET", "/healthz")
	c.BeginDrain()
	doReq(h, "POST", "/offers")

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`admission_admitted_total{class="write"} 1`,
		`admission_admitted_total{class="ops"} 1`,
		`admission_shed_total{class="write",reason="draining"} 1`,
		`admission_queue_depth{class="write"} 0`,
		`admission_in_flight{class="read"} 0`,
		`admission_draining 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// grepLines filters text to lines containing needle, for focused failure
// output.
func grepLines(text, needle string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
