package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/flexoffer"
	"repro/internal/kpi"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

// newOpsHandler builds the daemon's full HTTP surface the way run does,
// returning the pieces tests poke at.
func newOpsHandler(t *testing.T, clock func() time.Time, pprofOn bool) (http.Handler, *market.Store, *obs.Registry, *pipeline.Telemetry, *health) {
	t.Helper()
	store := market.NewStore(clock)
	reg := obs.NewRegistry()
	httpMetrics := obs.NewHTTPMetrics(reg, "mirabeld")
	market.RegisterStoreMetrics(reg, store)
	telemetry := pipeline.NewTelemetry(reg)
	hlt := new(health)
	api := market.NewServer(store, market.WithObservability(httpMetrics, nil))
	svc, err := sched.New(sched.Config{Store: store, Supply: sched.FlatSupply(5), Clock: clock})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	sched.RegisterServiceMetrics(reg, svc)
	schedAPI := obs.Middleware(svc.Handler(), httpMetrics, market.RouteLabel, nil)
	kpiSvc, err := kpi.NewService(kpi.ServiceConfig{Store: store})
	if err != nil {
		t.Fatalf("kpi.NewService: %v", err)
	}
	t.Cleanup(kpiSvc.Close)
	kpi.RegisterServiceMetrics(reg, kpiSvc)
	kpiAPI := obs.Middleware(kpiSvc.Handler(), httpMetrics, market.RouteLabel, nil)
	return newHandler(api, schedAPI, kpiAPI, reg, hlt, pprofOn), store, reg, telemetry, hlt
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	body, _ := io.ReadAll(rr.Result().Body)
	return rr.Code, string(body)
}

// TestHealthzVersusReadyz covers the not-yet-seeded window: the daemon is
// alive (healthz 200) from the first request, but not ready (readyz 503)
// until seeding flips the flag.
func TestHealthzVersusReadyz(t *testing.T) {
	h, _, _, _, hlt := newOpsHandler(t, nil, false)

	if code, body := get(t, h, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz before seed = %d %q, want 200 ok", code, body)
	}
	if code, body := get(t, h, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "seeding") {
		t.Errorf("/readyz before seed = %d %q, want 503 seeding", code, body)
	}

	hlt.ready.Store(true)
	if code, body := get(t, h, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz after seed = %d %q, want 200 ready", code, body)
	}

	// Draining flips readiness back to 503 so load balancers stop
	// routing here, while liveness stays 200 for the whole drain.
	hlt.draining.Store(true)
	if code, body := get(t, h, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz draining = %d %q, want 503 draining", code, body)
	}
	if code, _ := get(t, h, "/healthz"); code != 200 {
		t.Errorf("/healthz draining = %d, want 200", code)
	}
	hlt.draining.Store(false)

	// Probes are GET-only.
	for _, path := range []string{"/healthz", "/readyz"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path, nil))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, rr.Code)
		}
	}
}

// TestMetricsEndToEnd is the acceptance path: seed a store through the
// pipeline, drive a few API requests, then scrape /metrics and require
// request-latency histograms, per-state offer gauges and pipeline job
// counters in the Prometheus text.
func TestMetricsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a", "b"} {
		writeHouseCSV(t, filepath.Join(dir, name+".csv"), 3)
	}
	clockAt := seedStart.Add(-48 * time.Hour)
	h, store, _, telemetry, hlt := newOpsHandler(t, func() time.Time { return clockAt }, false)

	if err := seedStore(context.Background(), store, nil, telemetry, nil, nil, nil, dir, "peak", 0.05, 2); err != nil {
		t.Fatal(err)
	}
	hlt.ready.Store(true)

	// A few API requests so the middleware has something to report.
	if code, _ := get(t, h, "/offers"); code != 200 {
		t.Fatalf("GET /offers = %d", code)
	}
	if code, _ := get(t, h, "/stats"); code != 200 {
		t.Fatalf("GET /stats = %d", code)
	}

	code, text := get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		// request-latency histograms from the HTTP middleware
		`mirabeld_http_request_seconds_bucket{route="/offers",le="+Inf"} 1`,
		`mirabeld_http_requests_total{route="/offers",method="GET",status="2xx"} 1`,
		`mirabeld_http_requests_total{route="/stats",method="GET",status="2xx"} 1`,
		// per-state offer gauges from the store
		`market_offers{state="offered"}`,
		`market_flexible_energy_kwh`,
		// pipeline job counters from seeding
		`pipeline_jobs_started_total 2`,
		`pipeline_jobs_succeeded_total 2`,
		`pipeline_jobs_failed_total 0`,
		`# TYPE pipeline_extract_seconds histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The seeded offers really are gauged: the offered count is non-zero.
	if strings.Contains(text, `market_offers{state="offered"} 0`) {
		t.Error("offered gauge is zero after seeding")
	}

	// JSON rendering of the very same registry.
	code, body := get(t, h, "/metrics?format=json")
	if code != 200 || !strings.Contains(body, `"pipeline_jobs_succeeded_total": 2`) {
		t.Errorf("/metrics?format=json = %d %q", code, body)
	}
}

// TestPprofGating: /debug/pprof/ exists only behind -pprof.
func TestPprofGating(t *testing.T) {
	off, _, _, _, _ := newOpsHandler(t, nil, false)
	if code, _ := get(t, off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof off: /debug/pprof/ = %d, want 404", code)
	}
	on, _, _, _, _ := newOpsHandler(t, nil, true)
	if code, body := get(t, on, "/debug/pprof/"); code != 200 || !strings.Contains(body, "profiles") {
		t.Errorf("pprof on: /debug/pprof/ = %d", code)
	}
}

// TestKPIEndpointEndToEnd drives one offer through its lifecycle against
// the full daemon surface and checks GET /kpi reflects it — counts,
// derived indicators and the kpi_* metric families on /metrics.
func TestKPIEndpointEndToEnd(t *testing.T) {
	now := time.Date(2012, 6, 4, 12, 0, 0, 0, time.UTC)
	h, store, _, _, _ := newOpsHandler(t, func() time.Time { return now }, false)

	earliest := now.Add(2 * time.Hour)
	offer := &flexoffer.FlexOffer{
		ID:            "kpi-1",
		ConsumerID:    "house-kpi",
		EarliestStart: earliest,
		LatestStart:   earliest.Add(time.Hour),
		Profile:       []flexoffer.Slice{{Duration: time.Hour, MinEnergy: 1, MaxEnergy: 3}},
	}
	if err := store.Submit(offer); err != nil {
		t.Fatal(err)
	}
	if err := store.Accept("kpi-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Assign("kpi-1", earliest.Add(time.Hour), []float64{2}); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, h, "/kpi")
	if code != 200 {
		t.Fatalf("GET /kpi = %d: %s", code, body)
	}
	var rep kpi.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("GET /kpi: invalid JSON: %v", err)
	}
	if rep.Global.Submitted != 1 || rep.Global.Assigned != 1 {
		t.Fatalf("global counts off: %+v", rep.Global.Totals)
	}
	if v, ok := rep.Owners["house-kpi"]; !ok || v.AssignedKWh != 2 {
		t.Fatalf("owner breakdown off: %+v", rep.Owners)
	}
	if rep.Global.TimeFlexUse != 1 {
		t.Fatalf("TimeFlexUse = %v, want 1 (shifted to the window edge)", rep.Global.TimeFlexUse)
	}

	if code, body := get(t, h, "/kpi?owner=ghost"); code != 404 || !strings.Contains(body, "error") {
		t.Fatalf("GET /kpi?owner=ghost = %d %s, want 404 envelope", code, body)
	}

	code, body = get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"kpi_offers_submitted_total 1",
		"kpi_offers_assigned_total 1",
		"kpi_assigned_kwh_total 2",
		"kpi_acceptance_precision 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestOverloadStackWiring assembles the handler exactly as run does —
// admission middleware plus the request-timeout layer — and checks the
// daemon-level contract: draining sheds non-ops traffic with 503 and a
// Retry-After hint while the operational probes keep answering.
func TestOverloadStackWiring(t *testing.T) {
	inner, _, reg, _, hlt := newOpsHandler(t, nil, false)
	ctrl := admission.NewController(admission.Config{
		Reads:  admission.Limits{MaxConcurrent: 4, MaxQueue: 4, MaxWait: 50 * time.Millisecond},
		Writes: admission.Limits{MaxConcurrent: 2, MaxQueue: 2, MaxWait: 50 * time.Millisecond},
	})
	admission.RegisterMetrics(reg, ctrl)
	h := admission.WithTimeout(ctrl.Middleware(inner), time.Second,
		func(r *http.Request) bool { return ctrl.ClassOf(r) == admission.ClassOps })
	hlt.ready.Store(true)

	// Normal operation: reads pass through the stack.
	if code, _ := get(t, h, "/stats"); code != 200 {
		t.Fatalf("GET /stats through the stack = %d", code)
	}

	// Drain: non-ops requests shed, probes and metrics stay reachable.
	hlt.draining.Store(true)
	ctrl.BeginDrain()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/offers", strings.NewReader("{}")))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /offers while draining = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("drain shed lost its Retry-After header")
	}
	if body := rr.Body.String(); !strings.Contains(body, "draining") {
		t.Errorf("drain shed body %q does not name the reason", body)
	}
	if code, _ := get(t, h, "/healthz"); code != 200 {
		t.Errorf("/healthz while draining = %d, want 200", code)
	}
	if code, body := get(t, h, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz while draining = %d %q, want 503 draining", code, body)
	}
	if code, text := get(t, h, "/metrics"); code != 200 || !strings.Contains(text, "admission_draining 1") {
		t.Errorf("/metrics while draining = %d, want 200 with admission_draining 1", code)
	}
}
