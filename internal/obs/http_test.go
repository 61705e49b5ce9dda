package obs

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestMiddlewareCountsAndStatus(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "test")
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	mux.HandleFunc("/teapot", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) })
	h := Middleware(mux, m, func(r *http.Request) string { return r.URL.Path }, nil)

	for _, path := range []string{"/ok", "/ok", "/teapot"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	}
	if got := m.Requests.With("/ok", "GET", "2xx").Value(); got != 2 {
		t.Errorf("2xx count = %d, want 2", got)
	}
	if got := m.Requests.With("/teapot", "GET", "4xx").Value(); got != 1 {
		t.Errorf("4xx count = %d, want 1", got)
	}
	if got := m.Latency.With("/ok").Snapshot().Count; got != 2 {
		t.Errorf("latency observations = %d, want 2", got)
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Errorf("in-flight after requests = %d, want 0", got)
	}
}

func TestMiddlewareRecoversPanics(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "test")
	var logbuf strings.Builder
	logger := NewLogger(&logbuf, LevelError)
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { panic("kaboom") })
	h := Middleware(boom, m, nil, logger)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/boom", nil)) // must not propagate
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler status = %d, want 500", rr.Code)
	}
	if m.Panics.Value() != 1 {
		t.Errorf("panics counter = %d, want 1", m.Panics.Value())
	}
	if got := m.Requests.With("/boom", "GET", "5xx").Value(); got != 1 {
		t.Errorf("5xx count = %d, want 1", got)
	}
	if !strings.Contains(logbuf.String(), "kaboom") {
		t.Errorf("panic not logged: %q", logbuf.String())
	}
}

func TestMiddlewareNilMetricsAndLogger(t *testing.T) {
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}), nil, nil, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Code != http.StatusNoContent {
		t.Errorf("status = %d, want 204", rr.Code)
	}
}

// TestMiddlewareRouteLabelsBounded: with no routeOf, the middleware labels
// each request by its raw path, so 3,000 distinct paths would build 3,000
// request children without the family bound.
func TestMiddlewareRouteLabelsBounded(t *testing.T) {
	reg := NewRegistry()
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), NewHTTPMetrics(reg, "test"), nil, nil)
	for i := 0; i < 3000; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/p/"+strconv.Itoa(i), nil))
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\ntest_http_requests_total{"); n > maxVecChildren+1 {
		t.Errorf("exposition holds %d request children, want at most %d", n, maxVecChildren+1)
	}
}
