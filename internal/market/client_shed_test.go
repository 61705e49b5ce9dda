package market

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// shedServer answers every request with the given shed response.
func shedServer(status int, retryAfter, body string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
}

// TestClientShedError: 429 and 503 responses surface as *ShedError with
// the parsed Retry-After hint and the server's message; other error
// statuses keep the plain error path.
func TestClientShedError(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		body       string
		wantHint   time.Duration
		wantMsg    string
	}{
		{"queue full", http.StatusTooManyRequests, "2", `{"error":"admission: queue full"}`, 2 * time.Second, "admission: queue full"},
		{"draining", http.StatusServiceUnavailable, "5", `{"error":"admission: draining"}`, 5 * time.Second, "admission: draining"},
		{"no header", http.StatusServiceUnavailable, "", `{"error":"admission: wait timeout"}`, 0, "admission: wait timeout"},
		{"bad header", http.StatusTooManyRequests, "soon", `{"error":"admission: queue full"}`, 0, "admission: queue full"},
		{"no body", http.StatusTooManyRequests, "1", "", time.Second, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := shedServer(c.status, c.retryAfter, c.body)
			defer ts.Close()
			cl := &Client{BaseURL: ts.URL}

			err := cl.Submit(testOffer("shed-1"))
			var shed *ShedError
			if !errors.As(err, &shed) {
				t.Fatalf("Submit error %v (%T), want *ShedError", err, err)
			}
			if shed.StatusCode != c.status {
				t.Errorf("StatusCode = %d, want %d", shed.StatusCode, c.status)
			}
			if shed.RetryAfter != c.wantHint {
				t.Errorf("RetryAfter = %v, want %v", shed.RetryAfter, c.wantHint)
			}
			if shed.Message != c.wantMsg {
				t.Errorf("Message = %q, want %q", shed.Message, c.wantMsg)
			}
			if !strings.Contains(shed.Error(), "shed") {
				t.Errorf("Error() = %q, want it to name the shed", shed.Error())
			}
		})
	}
}

// TestClientNonShedStatusStaysPlainError: statuses outside the overload
// set keep the original error shape, so state-machine errors (404, 409)
// never trigger Retry-After pacing.
func TestClientNonShedStatusStaysPlainError(t *testing.T) {
	ts := shedServer(http.StatusNotFound, "3", `{"error":"offer not found"}`)
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	_, err := cl.Get("nope")
	if err == nil {
		t.Fatal("Get succeeded against a 404 server")
	}
	var shed *ShedError
	if errors.As(err, &shed) {
		t.Fatalf("404 mapped to ShedError %v; must stay a plain error", shed)
	}
	if !strings.Contains(err.Error(), "offer not found") {
		t.Errorf("error %q lost the server message", err)
	}
}

// TestParseRetryAfter covers the header decoding edge cases.
func TestParseRetryAfter(t *testing.T) {
	cases := map[string]time.Duration{
		"0":                             0,
		"1":                             time.Second,
		"30":                            30 * time.Second,
		"-1":                            0,
		"":                              0,
		"soon":                          0,
		"Wed, 21 Oct 2015 07:28:00 GMT": 0,
	}
	for in, want := range cases {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}
