package market

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// newQueryServer builds a 4-shard store with a deterministic population —
// 25 offers from two owners, a few accepted — behind an httptest server.
func newQueryServer(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	clock := &fakeClock{now: t0}
	s := NewShardedStore(4, clock.Now)
	for i := 0; i < 25; i++ {
		f := testOffer(fmt.Sprintf("q-%03d", i))
		if i%3 == 0 {
			f.ConsumerID = "owner-b"
		}
		if err := s.Submit(f); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for i := 0; i < 25; i += 5 {
		if err := s.Accept(fmt.Sprintf("q-%03d", i)); err != nil {
			t.Fatalf("Accept: %v", err)
		}
	}
	srv := httptest.NewServer(NewServer(s))
	t.Cleanup(srv.Close)
	return s, srv
}

// getJSON fetches path and decodes the body into out, returning the
// status code.
func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestListQueryConformance(t *testing.T) {
	s, srv := newQueryServer(t)
	all := s.List()

	t.Run("bare listing keeps the legacy array shape", func(t *testing.T) {
		var recs []Record
		if code := getJSON(t, srv, "/offers", &recs); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(recs) != len(all) {
			t.Fatalf("%d records, want %d", len(recs), len(all))
		}
	})

	t.Run("state-only listing keeps the legacy array shape", func(t *testing.T) {
		var recs []Record
		if code := getJSON(t, srv, "/offers?state=accepted", &recs); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(recs) != 5 {
			t.Fatalf("%d accepted records, want 5", len(recs))
		}
	})

	t.Run("limit pages the walk in stable shard-major order", func(t *testing.T) {
		var walked []Record
		path := "/offers?limit=4"
		pages := 0
		for {
			var page Page
			if code := getJSON(t, srv, path, &page); code != http.StatusOK {
				t.Fatalf("status %d at page %d", code, pages)
			}
			if len(page.Records) > 4 {
				t.Fatalf("page %d holds %d records, limit was 4", pages, len(page.Records))
			}
			walked = append(walked, page.Records...)
			pages++
			if page.NextCursor == "" {
				break
			}
			path = "/offers?limit=4&cursor=" + page.NextCursor
		}
		if len(walked) != len(all) {
			t.Fatalf("walk visited %d records, store holds %d", len(walked), len(all))
		}
		for i := range walked {
			if walked[i].Offer.ID != all[i].Offer.ID {
				t.Fatalf("walk order diverges from List at %d: %s vs %s", i, walked[i].Offer.ID, all[i].Offer.ID)
			}
		}
		if pages < 7 {
			t.Fatalf("only %d pages for %d records at limit 4", pages, len(all))
		}
	})

	t.Run("state filter with pagination", func(t *testing.T) {
		var page Page
		if code := getJSON(t, srv, "/offers?state=accepted&limit=100", &page); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(page.Records) != 5 || page.NextCursor != "" {
			t.Fatalf("page = %d records, cursor %q", len(page.Records), page.NextCursor)
		}
		for _, r := range page.Records {
			if r.State != Accepted {
				t.Fatalf("record %s is %s", r.Offer.ID, r.State)
			}
		}
	})

	t.Run("owner filter", func(t *testing.T) {
		var page Page
		if code := getJSON(t, srv, "/offers?owner=owner-b&limit=100", &page); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(page.Records) != 9 {
			t.Fatalf("%d owner-b records, want 9", len(page.Records))
		}
		for _, r := range page.Records {
			if r.Offer.ConsumerID != "owner-b" {
				t.Fatalf("record %s belongs to %s", r.Offer.ID, r.Offer.ConsumerID)
			}
		}
	})

	t.Run("empty page when the filter matches nothing", func(t *testing.T) {
		var page Page
		if code := getJSON(t, srv, "/offers?state=assigned&limit=10", &page); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(page.Records) != 0 {
			t.Fatalf("%d records, want none assigned", len(page.Records))
		}
	})

	t.Run("cursor past the end yields an empty final page", func(t *testing.T) {
		past := encodeCursor(cursor{Shard: s.ShardCount() - 1, Pos: 1 << 20})
		var page Page
		if code := getJSON(t, srv, "/offers?limit=10&cursor="+past, &page); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(page.Records) != 0 || page.NextCursor != "" {
			t.Fatalf("page past end = %d records, cursor %q", len(page.Records), page.NextCursor)
		}
	})

	badRequests := map[string]string{
		"invalid cursor text":     "/offers?cursor=%21%21not-base64%21%21",
		"cursor junk json":        "/offers?cursor=bm90LWpzb24",
		"negative cursor":         "/offers?cursor=" + encodeCursor(cursor{Shard: -1}),
		"cursor unknown state":    "/offers?cursor=" + encodeCursor(cursor{States: []string{"melted"}}),
		"limit zero":              "/offers?limit=0",
		"limit negative":          "/offers?limit=-3",
		"limit over max":          "/offers?limit=1001",
		"limit not a number":      "/offers?limit=ten",
		"unknown state filter":    "/offers?state=melted",
		"cursor filter mismatch":  "/offers?state=accepted&cursor=" + encodeCursor(cursor{}),
		"cursor owner mismatch":   "/offers?owner=owner-b&cursor=" + encodeCursor(cursor{Owner: "someone-else"}),
		"cursor dropped a filter": "/offers?limit=5&cursor=" + encodeCursor(cursor{States: []string{"accepted"}}),
	}
	for name, path := range badRequests {
		t.Run("400 on "+name, func(t *testing.T) {
			if code := getJSON(t, srv, path, nil); code != http.StatusBadRequest {
				t.Fatalf("GET %s = %d, want 400", path, code)
			}
		})
	}
}

// TestPageCursorSurvivesTransitions pins cursor stability: positions index
// the append-only submission order, so records transitioning between
// pages never skew the walk.
func TestPageCursorSurvivesTransitions(t *testing.T) {
	clock := &fakeClock{now: t0}
	s := NewShardedStore(3, clock.Now)
	for i := 0; i < 30; i++ {
		if err := s.Submit(testOffer(fmt.Sprintf("c-%03d", i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	first, err := s.Page(ListQuery{Limit: 10})
	if err != nil {
		t.Fatalf("Page: %v", err)
	}
	// Transition records everywhere in the store between the two pages.
	for i := 0; i < 30; i += 2 {
		if err := s.Accept(fmt.Sprintf("c-%03d", i)); err != nil {
			t.Fatalf("Accept: %v", err)
		}
	}
	rest, err := s.Page(ListQuery{Limit: 100, Cursor: first.NextCursor})
	if err != nil {
		t.Fatalf("Page(cursor): %v", err)
	}
	seen := make(map[string]bool)
	for _, r := range append(first.Records, rest.Records...) {
		if seen[r.Offer.ID] {
			t.Fatalf("record %s visited twice", r.Offer.ID)
		}
		seen[r.Offer.ID] = true
	}
	if len(seen) != 30 {
		t.Fatalf("walk visited %d of 30 records", len(seen))
	}
}

// TestStateFilterUnion: repeated state= parameters list the union of
// their states, in the bare listing, the paged one and Client.ListPage,
// and a union page's cursor resumes under the same union. An empty state=
// filters nothing.
func TestStateFilterUnion(t *testing.T) {
	s, _ := newTestStore()
	for _, id := range []string{"u-offered", "u-accepted", "u-rejected"} {
		if err := s.Submit(testOffer(id)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Accept("u-accepted"); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if err := s.Reject("u-rejected"); err != nil {
		t.Fatalf("Reject: %v", err)
	}
	srv := httptest.NewServer(NewServer(s))
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	ids := func(recs []Record) string {
		var out []string
		for _, r := range recs {
			out = append(out, r.Offer.ID)
		}
		return strings.Join(out, ",")
	}
	const union = "u-offered,u-accepted"

	var bare []Record
	if code := getJSON(t, srv, "/offers?state=offered&state=accepted", &bare); code != http.StatusOK || ids(bare) != union {
		t.Errorf("bare union listing = %d %q, want 200 %q", code, ids(bare), union)
	}
	var page Page
	if code := getJSON(t, srv, "/offers?state=offered&state=accepted&limit=10", &page); code != http.StatusOK || ids(page.Records) != union {
		t.Errorf("paged union listing = %d %q, want 200 %q", code, ids(page.Records), union)
	}
	var walked []Record
	q := ListQuery{States: []State{Offered, Accepted}, Limit: 1}
	for {
		p, err := client.ListPage(q)
		if err != nil {
			t.Fatalf("ListPage: %v", err)
		}
		walked = append(walked, p.Records...)
		if p.NextCursor == "" {
			break
		}
		q.Cursor = p.NextCursor
	}
	if ids(walked) != union {
		t.Errorf("ListPage walk of the union = %q, want %q", ids(walked), union)
	}
	if code := getJSON(t, srv, "/offers?state=", &bare); code != http.StatusOK || len(bare) != 3 {
		t.Errorf("empty state= listing = %d, %d records, want 200 and all 3", code, len(bare))
	}
}

// FuzzListQuery fuzzes the GET /offers query surface: parameter parsing,
// cursor decoding and the page walk itself. Whatever the inputs, the
// store must answer 200 or 400 — never panic, never 500.
func FuzzListQuery(f *testing.F) {
	f.Add("offered", "", "10", "")
	f.Add("", "owner-b", "1", "")
	f.Add("accepted", "", "1000", "eyJzIjowLCJwIjowfQ")
	f.Add("melted", "x", "-5", "!!!")
	f.Add("", "", "", "bm90LWpzb24")
	f.Add("expired", "c1", "0", "eyJzIjotMSwicCI6LTF9")

	clock := &fakeClock{now: t0}
	s := NewShardedStore(3, clock.Now)
	for i := 0; i < 12; i++ {
		fo := testOffer(fmt.Sprintf("fz-%02d", i))
		if i%2 == 0 {
			fo.ConsumerID = "owner-b"
		}
		if err := s.Submit(fo); err != nil {
			f.Fatalf("Submit: %v", err)
		}
	}
	srv := NewServer(s)

	f.Fuzz(func(t *testing.T, state, owner, limit, cursor string) {
		values := url.Values{}
		for _, kv := range [][2]string{{"state", state}, {"owner", owner}, {"limit", limit}, {"cursor", cursor}} {
			if kv[1] != "" {
				values.Set(kv[0], kv[1])
			}
		}
		target := "/offers"
		if enc := values.Encode(); enc != "" {
			target += "?" + enc
		}
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK && rr.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 200 or 400\n%s", target, rr.Code, rr.Body.String())
		}
		if rr.Code != http.StatusOK {
			return
		}
		// A 200 with a cursor must continue cleanly for at least one page.
		var page Page
		if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
			return // legacy bare-array shape
		}
		if page.NextCursor != "" {
			next := httptest.NewRequest(http.MethodGet, "/offers?cursor="+page.NextCursor, nil)
			if owner != "" || state != "" {
				return // the filter must be repeated; mismatch 400s by design
			}
			rr2 := httptest.NewRecorder()
			srv.ServeHTTP(rr2, next)
			if rr2.Code != http.StatusOK {
				t.Fatalf("follow-up cursor page = %d\n%s", rr2.Code, rr2.Body.String())
			}
		}
	})
}
