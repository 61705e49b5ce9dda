package obs

import (
	"net/http"
	"time"
)

// HTTPMetrics bundles the standard instruments for one HTTP server:
// request counts by (route, method, status class), per-route latency
// histograms, an in-flight gauge, and a recovered-panic counter.
type HTTPMetrics struct {
	// Requests counts finished requests, labelled route/method/status
	// ("2xx", "4xx", ...).
	Requests *CounterVec
	// Latency observes per-route request durations in seconds.
	Latency *HistogramVec
	// InFlight is the number of requests currently being served.
	InFlight *Gauge
	// Panics counts handler panics recovered by the middleware.
	Panics *Counter
}

// NewHTTPMetrics registers the standard HTTP server instruments under
// <prefix>_http_*.
func NewHTTPMetrics(r *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: r.NewCounterVec(prefix+"_http_requests_total", "HTTP requests served, by route, method and status class.", "route", "method", "status"),
		Latency:  r.NewHistogramVec(prefix+"_http_request_seconds", "HTTP request latency in seconds, by route.", nil, "route"),
		InFlight: r.NewGauge(prefix+"_http_in_flight", "HTTP requests currently being served."),
		Panics:   r.NewCounter(prefix+"_http_panics_total", "Handler panics recovered by the middleware."),
	}
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(status int) {
	if !r.wrote {
		r.status, r.wrote = status, true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status, r.wrote = http.StatusOK, true
	}
	return r.ResponseWriter.Write(b)
}

// methodLabel normalises an HTTP method into a bounded label set: the
// standard methods pass through, anything else — clients may send an
// arbitrary method string — collapses to "other", so the request-counter
// family cannot be grown one child per attacker-chosen method.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodHead:
		return http.MethodHead
	case http.MethodPost:
		return http.MethodPost
	case http.MethodPut:
		return http.MethodPut
	case http.MethodPatch:
		return http.MethodPatch
	case http.MethodDelete:
		return http.MethodDelete
	case http.MethodOptions:
		return http.MethodOptions
	default:
		return "other"
	}
}

func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// Middleware wraps next with instrumentation: every request is counted and
// timed under the route label routeOf derives from it (the raw path when
// routeOf is nil; the family bound caps the children either way), requests
// in flight are gauged, and handler panics are recovered into a 500 (and
// counted) so one bad request cannot take the server down. Each request is
// logged at debug level, recovered panics at error level. Both m and
// logger may be nil to disable that half.
func Middleware(next http.Handler, m *HTTPMetrics, routeOf func(*http.Request) string, logger *Logger) http.Handler {
	if routeOf == nil {
		routeOf = func(r *http.Request) string { return r.URL.Path }
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		if m != nil {
			m.InFlight.Inc()
		}
		defer func() {
			elapsed := time.Since(start)
			if p := recover(); p != nil {
				if m != nil {
					m.Panics.Inc()
				}
				logger.Error("handler panic", "route", route, "method", r.Method, "panic", p)
				if !rec.wrote {
					rec.WriteHeader(http.StatusInternalServerError)
				}
			}
			if m != nil {
				m.InFlight.Dec()
				m.Requests.With(route, methodLabel(r.Method), statusClass(rec.status)).Inc()
				m.Latency.With(route).Observe(elapsed.Seconds())
			}
			logger.Debug("request", "route", route, "method", r.Method, "path", r.URL.Path, "status", rec.status, "dur", elapsed)
		}()
		next.ServeHTTP(rec, r)
	})
}
