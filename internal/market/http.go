package market

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/obs"
)

// Server exposes a Store over HTTP with a small JSON API; Routes lists
// every route and docs/API.md documents the full contract:
//
//	POST /offers                 submit a flex-offer (JSON body)
//	GET  /offers                 list records; ?state=/?owner= filter,
//	                             ?limit=/?cursor= paginate
//	GET  /offers/{id}            one record
//	POST /offers/{id}/accept     accept
//	POST /offers/{id}/reject     reject
//	POST /offers/{id}/assign     assign {"start": ..., "energies": [...]}
//	POST /expire                 sweep overdue records
//	GET  /stats                  store summary
type Server struct {
	store   *Store
	mux     *http.ServeMux
	handler http.Handler
	metrics *obs.HTTPMetrics
	logger  *obs.Logger
	wrap    func(http.Handler) http.Handler
}

// ServerOption configures a Server at construction time.
type ServerOption func(*Server)

// WithObservability instruments the server: every request is counted and
// timed under its RouteLabel through m's middleware (panic recovery
// included), and requests are logged to logger at debug level. Either
// argument may be nil.
func WithObservability(m *obs.HTTPMetrics, logger *obs.Logger) ServerOption {
	return func(s *Server) {
		s.metrics = m
		s.logger = logger
	}
}

// WithMiddleware wraps the route mux with wrap. The wrapper sits inside
// the observability middleware (when both are configured), so anything it
// does to a request — fault injection's errors, delays and panics
// included — is counted and timed like organic traffic.
func WithMiddleware(wrap func(http.Handler) http.Handler) ServerOption {
	return func(s *Server) { s.wrap = wrap }
}

// NewServer wraps a store.
func NewServer(store *Store, opts ...ServerOption) *Server {
	s := &Server{store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("/offers", s.handleOffers)
	s.mux.HandleFunc("/offers/", s.handleOffer)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/expire", s.handleExpire)
	for _, opt := range opts {
		opt(s)
	}
	s.handler = s.mux
	if s.wrap != nil {
		s.handler = s.wrap(s.handler)
	}
	if s.metrics != nil || s.logger != nil {
		s.handler = obs.Middleware(s.handler, s.metrics, RouteLabel, s.logger)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Route describes one HTTP route a daemon exposes: the inventory behind
// docs/API.md, which a test diffs against the documentation.
type Route struct {
	// Method is the HTTP method the route answers.
	Method string
	// Pattern is the route's path with {placeholders} for variable
	// segments, matching the RouteLabel metric labels.
	Pattern string
	// Summary is a one-line description.
	Summary string
}

// Routes returns the flex-offer API's route inventory, in documentation
// order. Every entry is registered by NewServer (the mux patterns collapse
// the per-ID routes into "/offers/"); TestRoutesRegistered asserts the
// correspondence.
func Routes() []Route {
	return []Route{
		{Method: http.MethodPost, Pattern: "/offers", Summary: "submit a flex-offer"},
		{Method: http.MethodGet, Pattern: "/offers", Summary: "list collected offers (?state=/?owner= filter, ?limit=/?cursor= paginate)"},
		{Method: http.MethodGet, Pattern: "/offers/{id}", Summary: "fetch one offer record"},
		{Method: http.MethodPost, Pattern: "/offers/{id}/accept", Summary: "accept an offered flex-offer"},
		{Method: http.MethodPost, Pattern: "/offers/{id}/reject", Summary: "reject an offered flex-offer"},
		{Method: http.MethodPost, Pattern: "/offers/{id}/assign", Summary: "fix start time and energies of an accepted offer"},
		{Method: http.MethodGet, Pattern: "/stats", Summary: "store summary by lifecycle state"},
		{Method: http.MethodPost, Pattern: "/expire", Summary: "sweep overdue offers"},
	}
}

// RouteLabel maps a request onto the bounded set of route patterns used as
// metric labels — offer IDs (which may contain slashes) collapse into
// {id}, so label cardinality stays fixed no matter how many offers exist.
// Requests that match nothing label as "other".
func RouteLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/offers", "/stats", "/expire", "/metrics", "/healthz", "/readyz",
		"/aggregates", "/schedule", "/schedule/run", "/kpi":
		return p
	}
	switch {
	case strings.HasPrefix(p, "/offers/"):
		rest := strings.TrimPrefix(p, "/offers/")
		if i := strings.LastIndex(rest, "/"); i >= 0 {
			switch rest[i+1:] {
			case "accept", "reject", "assign":
				return "/offers/{id}/" + rest[i+1:]
			}
		}
		return "/offers/{id}"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	default:
		return "other"
	}
}

// parseListQuery interprets the GET /offers query parameters. paged
// reports whether the request opted into the paginated envelope: any of
// limit, cursor or owner does; a bare or state-only listing keeps the
// pre-pagination bare-array contract.
func parseListQuery(values url.Values) (q ListQuery, paged bool, err error) {
	// Every state= names one state of a union; an empty one filters
	// nothing.
	for _, raw := range values["state"] {
		if raw == "" {
			continue
		}
		st, err := ParseState(raw)
		if err != nil {
			return q, false, err
		}
		q.States = append(q.States, st)
	}
	if raw := values.Get("owner"); raw != "" {
		q.Owner = raw
		paged = true
	}
	if raw := values.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > MaxPageLimit {
			return q, false, fmt.Errorf("%w: limit must be 1..%d", ErrBadRequest, MaxPageLimit)
		}
		q.Limit = n
		paged = true
	}
	if raw := values.Get("cursor"); raw != "" {
		q.Cursor = raw
		paged = true
	}
	return q, paged, nil
}

// assignRequest is the /assign body.
type assignRequest struct {
	Start    time.Time `json:"start"`
	Energies []float64 `json:"energies"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRawJSON writes pre-encoded JSON without routing it through an
// Encoder, which would re-parse the whole body to compact it. The paged
// listing — the largest and hottest response — uses this with the bytes
// Page.MarshalJSON already assembled.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte{'\n'})
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrDuplicate), errors.Is(err, ErrTransition):
		status = http.StatusConflict
	case errors.Is(err, ErrDeadline):
		status = http.StatusGone
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrJournal):
		// The transition was refused because it could not be made durable;
		// the client may retry once the disk recovers.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleOffers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var f flexoffer.FlexOffer
		if err := json.NewDecoder(r.Body).Decode(&f); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
			return
		}
		if err := s.store.Submit(&f); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": f.ID})
	case http.MethodGet:
		q, paged, err := parseListQuery(r.URL.Query())
		if err != nil {
			writeError(w, err)
			return
		}
		if !paged {
			// The pre-pagination contract: a bare or state-only listing
			// returns the full record array.
			writeJSON(w, http.StatusOK, s.store.List(q.States...))
			return
		}
		page, err := s.store.Page(q)
		if err != nil {
			writeError(w, err)
			return
		}
		body, err := page.MarshalJSON()
		if err != nil {
			writeError(w, err)
			return
		}
		writeRawJSON(w, http.StatusOK, body)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleOffer(w http.ResponseWriter, r *http.Request) {
	// Offer IDs may themselves contain slashes (batch extraction qualifies
	// them as <series>/<offer>), so the action is the *last* path segment
	// when it names a known verb; everything before it is the ID.
	id := strings.TrimPrefix(r.URL.Path, "/offers/")
	action := ""
	if i := strings.LastIndex(id, "/"); i >= 0 {
		switch verb := id[i+1:]; verb {
		case "accept", "reject", "assign":
			id, action = id[:i], verb
		}
	}
	if id == "" {
		writeError(w, fmt.Errorf("%w: missing offer id", ErrBadRequest))
		return
	}

	switch {
	case action == "" && r.Method == http.MethodGet:
		rec, ok := s.store.Get(id)
		if !ok {
			writeError(w, fmt.Errorf("%w: %s", ErrNotFound, id))
			return
		}
		writeJSON(w, http.StatusOK, rec)
	case action == "accept" && r.Method == http.MethodPost:
		if err := s.store.Accept(id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"state": Accepted.String()})
	case action == "reject" && r.Method == http.MethodPost:
		if err := s.store.Reject(id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"state": Rejected.String()})
	case action == "assign" && r.Method == http.MethodPost:
		var req assignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
			return
		}
		asg, err := s.store.Assign(id, req.Start, req.Energies)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, asg)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.store.Stats())
}

func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	n, err := s.store.ExpireOverdue()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"expired": n})
}
