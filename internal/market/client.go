package market

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/flexoffer"
)

// ShedError reports a request refused by the server's overload
// protection: an admission-control shed (429 when the wait queue is
// full, 503 when draining or the wait deadline passed) or a request
// timeout. It carries the server's Retry-After hint so retrying callers
// can pace themselves to the server's recovery window instead of their
// own backoff guess.
type ShedError struct {
	// StatusCode is the HTTP status the server answered with
	// (429 or 503).
	StatusCode int
	// RetryAfter is the server's Retry-After hint; zero when the header
	// was absent or unparseable.
	RetryAfter time.Duration
	// Message is the server's error envelope text, when present.
	Message string
}

// Error implements error.
func (e *ShedError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.StatusCode)
	}
	if e.RetryAfter > 0 {
		return fmt.Sprintf("market client: server shed request (%d): %s (retry after %s)", e.StatusCode, msg, e.RetryAfter)
	}
	return fmt.Sprintf("market client: server shed request (%d): %s", e.StatusCode, msg)
}

// shedStatus reports whether code is one of the overload-shedding
// statuses admission control answers with.
func shedStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// parseRetryAfter decodes a Retry-After header value in delta-seconds
// form. The HTTP-date form is not produced by this server and decodes
// to zero (no hint).
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Client talks to a market Server over HTTP.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7654".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient when nil.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do performs a request and decodes the JSON response into out (when out is
// non-nil). Non-2xx responses are turned into errors carrying the server's
// message.
func (c *Client) do(method, path string, body, out any) error {
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("market client: encode: %w", err)
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, reader)
	if err != nil {
		return fmt.Errorf("market client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("market client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		if shedStatus(resp.StatusCode) {
			return &ShedError{
				StatusCode: resp.StatusCode,
				RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
				Message:    eb.Error,
			}
		}
		if eb.Error != "" {
			return fmt.Errorf("market client: %s: %s", resp.Status, eb.Error)
		}
		return fmt.Errorf("market client: %s", resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("market client: decode: %w", err)
		}
	}
	return nil
}

// Submit collects an offer.
func (c *Client) Submit(f *flexoffer.FlexOffer) error {
	return c.do(http.MethodPost, "/offers", f, nil)
}

// Accept accepts an offer.
func (c *Client) Accept(id string) error {
	return c.do(http.MethodPost, "/offers/"+url.PathEscape(id)+"/accept", nil, nil)
}

// Reject rejects an offer.
func (c *Client) Reject(id string) error {
	return c.do(http.MethodPost, "/offers/"+url.PathEscape(id)+"/reject", nil, nil)
}

// Assign fixes an accepted offer's schedule.
func (c *Client) Assign(id string, start time.Time, energies []float64) error {
	return c.do(http.MethodPost, "/offers/"+url.PathEscape(id)+"/assign",
		assignRequest{Start: start, Energies: energies}, nil)
}

// Get fetches one record.
func (c *Client) Get(id string) (Record, error) {
	var rec Record
	err := c.do(http.MethodGet, "/offers/"+url.PathEscape(id), nil, &rec)
	return rec, err
}

// List fetches records, optionally filtered by state.
func (c *Client) List(state string) ([]Record, error) {
	path := "/offers"
	if state != "" {
		path += "?state=" + url.QueryEscape(state)
	}
	var recs []Record
	err := c.do(http.MethodGet, path, nil, &recs)
	return recs, err
}

// pageQuery renders q as the /offers query string, always naming a limit
// so the server answers with the paginated envelope.
func pageQuery(q ListQuery) string {
	values := url.Values{}
	for _, st := range q.States {
		values.Add("state", st.String())
	}
	if q.Owner != "" {
		values.Set("owner", q.Owner)
	}
	if q.Limit > 0 {
		values.Set("limit", strconv.Itoa(q.Limit))
	} else {
		// Force the paginated envelope even for a default-limit first page.
		values.Set("limit", strconv.Itoa(DefaultPageLimit))
	}
	if q.Cursor != "" {
		values.Set("cursor", q.Cursor)
	}
	return values.Encode()
}

// ListPage fetches one page of records matching q. An empty q.Cursor
// starts the walk; pass the returned page's NextCursor to continue it.
func (c *Client) ListPage(q ListQuery) (Page, error) {
	var page Page
	err := c.do(http.MethodGet, "/offers?"+pageQuery(q), nil, &page)
	return page, err
}

// PageRaw is one page of records left as raw JSON frames: the page is
// received and framed but no record is materialised. Load generators and
// pagination walkers that do not inspect record contents use this to keep
// client-side decode off their latency measurements.
type PageRaw struct {
	// Records holds each record's undecoded JSON.
	Records []json.RawMessage `json:"records"`
	// NextCursor continues the walk; empty when it is complete.
	NextCursor string `json:"next_cursor"`
}

// ListPageRaw fetches one page of records matching q without decoding
// them; see PageRaw.
func (c *Client) ListPageRaw(q ListQuery) (PageRaw, error) {
	var page PageRaw
	err := c.do(http.MethodGet, "/offers?"+pageQuery(q), nil, &page)
	return page, err
}

// Stats fetches the store summary.
func (c *Client) Stats() (Counts, error) {
	var counts Counts
	err := c.do(http.MethodGet, "/stats", nil, &counts)
	return counts, err
}

// Expire triggers the overdue sweep.
func (c *Client) Expire() (int, error) {
	var out map[string]int
	if err := c.do(http.MethodPost, "/expire", nil, &out); err != nil {
		return 0, err
	}
	return out["expired"], nil
}
