package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		path  string
		cls   fileClass
		shard int
	}{
		{"/d/data/shard-003/wal-0000000000000001.log", classWAL, 3},
		{"/d/data/shard-000/snap-0000000000000010.snap.tmp", classSnapshot, 0},
		{"/d/data/sched/wal-0000000000000000.log", classLedger, -1},
		{"/d/data/shard-12/wal-0.log", classWAL, -1},
	} {
		cls, shard := classify(c.path)
		if cls != c.cls || shard != c.shard {
			t.Errorf("classify(%s) = %v, %d; want %v, %d", c.path, cls, shard, c.cls, c.shard)
		}
	}
}

func TestAttributeWALSpansToShards(t *testing.T) {
	route := func(req int64, shard int, start, end int64) span {
		return span{Kind: spanRoute, Req: req, Shard: shard, Start: start, End: end}
	}
	wal := func(k spanKind, shard int, start, end int64) span {
		return span{Kind: k, Req: -1, Shard: shard, Start: start, End: end}
	}
	reqs := []span{
		route(1, 0, 0, 100),   // shard 0
		route(2, 1, 10, 90),   // shard 1, concurrent with 1
		route(3, 0, 20, 200),  // shard 0, waits for request 1's lock
		route(4, 2, 300, 400), // shard 2, its append fails: no WAL span
	}
	spans := []span{
		wal(spanWALWrite, 0, 30, 35),   // request 1: first on shard 0
		wal(spanWALSync, 0, 35, 80),    // request 1's fsync
		wal(spanWALWrite, 1, 40, 45),   // request 2: the only one on shard 1
		wal(spanWALSync, 1, 45, 85),    // request 2's fsync
		wal(spanWALWrite, 0, 120, 125), // request 3: 1 already wrote
		wal(spanWALSync, 0, 125, 180),  // request 3's fsync
		wal(spanWALWrite, 3, 50, 55),   // shard 3: no request there (a scheduler assign)
		wal(spanWALSync, 3, 55, 60),    // its fsync is background too
		wal(spanWALWrite, 0, 210, 215), // after every shard-0 request ended
		wal(spanWALSync, 2, 350, 360),  // shard 2 fsync with no write by request 4
	}
	want := []int64{1, 1, 2, 2, 3, 3, -1, -1, -1, -1}
	got := attribute(reqs, spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s on shard %d at %d): owner %d, want %d",
				i, spanNames[spans[i].Kind], spans[i].Shard, spans[i].Start, got[i], want[i])
		}
	}
}

func TestOfferIDOf(t *testing.T) {
	for _, c := range []struct {
		method, target, body, want string
	}{
		{"POST", "/offers/house-01/peak-0001/accept", "", "house-01/peak-0001"},
		{"POST", "/offers/a-1/reject", "", "a-1"},
		{"GET", "/offers/a-1", "", "a-1"},
		{"POST", "/offers", `{"id":"x-7","profile":[]}`, "x-7"},
		{"GET", "/offers?owner=o", "", ""},
		{"GET", "/kpi", "", ""},
	} {
		r := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		if got := offerIDOf(r); got != c.want {
			t.Errorf("%s %s: offer %q, want %q", c.method, c.target, got, c.want)
		}
		// The handler behind the wrapper must still read the whole body.
		if body, err := io.ReadAll(r.Body); err != nil || string(body) != c.body {
			t.Errorf("%s %s: body after the wrapper %q (%v), want %q", c.method, c.target, body, err, c.body)
		}
	}
}

func TestNextCursor(t *testing.T) {
	page := []byte(`{"records":[{"offer":{"id":"a","next_cursor":"decoy"}}],"next_cursor":"c2hhcmQ="}` + "\n")
	if got := nextCursor(page); got != "c2hhcmQ=" {
		t.Errorf("nextCursor = %q", got)
	}
	if got := nextCursor([]byte(`{"records":[]}`)); got != "" {
		t.Errorf("finished walk: nextCursor = %q", got)
	}
}
