package market

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
)

// Pagination limits for Page and the HTTP /offers endpoint.
const (
	// DefaultPageLimit applies when a paginated query names no limit.
	DefaultPageLimit = 100
	// MaxPageLimit is the largest page a single query may request.
	MaxPageLimit = 1000
)

// ListQuery selects and pages records for Store.Page. The zero value
// returns the first DefaultPageLimit records in shard-major submission
// order.
type ListQuery struct {
	// States filters to records currently in any of the given states;
	// empty means all states.
	States []State
	// Owner filters to offers whose ConsumerID equals Owner; empty means
	// all owners.
	Owner string
	// Limit caps the page size (1..MaxPageLimit); 0 means
	// DefaultPageLimit.
	Limit int
	// Cursor resumes a previous page walk; empty starts from the
	// beginning. A cursor is bound to the filter it was issued under.
	Cursor string
}

// Page is one page of records plus the cursor that continues the walk.
type Page struct {
	// Records is the page's records, in shard-major submission order.
	Records []Record `json:"records"`
	// NextCursor resumes the walk after the last record; empty when the
	// walk is complete.
	NextCursor string `json:"next_cursor,omitempty"`
}

// MarshalJSON assembles the page by stitching each record's hand-built
// bytes (Record.MarshalJSON) directly, so a page response is encoded in
// one pass — the standard encoder would re-parse every record's output
// to compact it, which at the default page size costs more than the
// listing itself.
func (p Page) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 64+len(p.Records)*2048)
	buf = append(buf, `{"records":[`...)
	for i := range p.Records {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		buf, err = p.Records[i].appendJSON(buf)
		if err != nil {
			return nil, err
		}
	}
	buf = append(buf, ']')
	if p.NextCursor != "" {
		// Cursors are base64url text: no JSON escaping needed.
		buf = append(buf, `,"next_cursor":"`...)
		buf = append(buf, p.NextCursor...)
		buf = append(buf, '"')
	}
	return append(buf, '}'), nil
}

// cursor is the wire form of a page position: the next shard to read and
// the next position in that shard's submission order, plus the filter the
// cursor was issued under so a resumed walk cannot silently switch
// filters. Positions index each shard's append-only order slice, so a
// cursor stays valid no matter how records transition between pages.
type cursor struct {
	Shard  int      `json:"s"`
	Pos    int      `json:"p"`
	States []string `json:"st,omitempty"`
	Owner  string   `json:"o,omitempty"`
}

// stateFilter returns the membership table of a state filter, the one
// form List and Page filter by. No states admits every state; a state out
// of range admits none.
func stateFilter(states []State) (want [numStates]bool) {
	for _, st := range states {
		if st >= 0 && int(st) < numStates {
			want[st] = true
		}
	}
	if len(states) == 0 {
		for st := range want {
			want[st] = true
		}
	}
	return want
}

// statesKey renders a state filter in canonical (sorted, deduplicated)
// textual form for cursor binding; no states has no key.
func statesKey(states []State) []string {
	if len(states) == 0 {
		return nil
	}
	var out []string
	for st, ok := range stateFilter(states) {
		if ok {
			out = append(out, State(st).String())
		}
	}
	return out
}

func sameKey(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// encodeCursor renders a cursor as opaque URL-safe text.
func encodeCursor(c cursor) string {
	b, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeCursor parses cursor text issued by encodeCursor. Errors wrap
// ErrBadRequest: a cursor the store did not issue is a client mistake,
// not a server failure.
func decodeCursor(s string) (cursor, error) {
	var c cursor
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return c, fmt.Errorf("%w: malformed cursor", ErrBadRequest)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%w: malformed cursor", ErrBadRequest)
	}
	if c.Shard < 0 || c.Pos < 0 {
		return c, fmt.Errorf("%w: malformed cursor", ErrBadRequest)
	}
	for _, name := range c.States {
		if _, err := ParseState(name); err != nil {
			return c, fmt.Errorf("%w: malformed cursor", ErrBadRequest)
		}
	}
	return c, nil
}

// Page returns one page of records matching q, walking the shards in
// shard-major submission order. Each call holds at most one shard's read
// lock at a time. An owner page walks only that owner's positions in each
// shard (the byOwner index, binary-searched from the cursor); any other
// page touches at most Limit matching records plus the non-matching
// records it skips, never the whole store. The returned cursor resumes
// exactly where the walk stopped; records submitted behind the cursor
// position are not revisited, records ahead of it appear in later pages
// (the usual paginated-walk semantics over live data).
//
// A cursor is bound to the query's filter: resuming with a different
// state or owner filter returns ErrBadRequest.
func (s *Store) Page(q ListQuery) (Page, error) {
	limit := q.Limit
	switch {
	case limit == 0:
		limit = DefaultPageLimit
	case limit < 0 || limit > MaxPageLimit:
		return Page{}, fmt.Errorf("%w: limit must be 1..%d", ErrBadRequest, MaxPageLimit)
	}
	key := statesKey(q.States)
	start := cursor{States: key, Owner: q.Owner}
	if q.Cursor != "" {
		c, err := decodeCursor(q.Cursor)
		if err != nil {
			return Page{}, err
		}
		if !sameKey(c.States, key) || c.Owner != q.Owner {
			return Page{}, fmt.Errorf("%w: cursor was issued for a different filter", ErrBadRequest)
		}
		start = c
	}
	want := stateFilter(q.States)

	page := Page{Records: []Record{}}
	// A cursor pointing past the last shard (the store has not grown a
	// shard since — counts are fixed at construction) yields the empty
	// final page.
	for si := start.Shard; si < len(s.shards); si++ {
		sh := s.shards[si]
		pos := 0
		if si == start.Shard {
			pos = start.Pos
		}
		sh.mu.RLock()
		if len(page.Records) < limit {
			pos = sh.walkLocked(q.Owner, want, pos, limit, &page.Records)
		}
		more := pos < len(sh.order)
		sh.mu.RUnlock()
		// A full page ends at the next position of the walk, whatever
		// record it holds; there is none after the store's last record.
		if len(page.Records) == limit && more {
			page.NextCursor = encodeCursor(cursor{Shard: si, Pos: pos, States: key, Owner: q.Owner})
			return page, nil
		}
	}
	return page, nil
}

// walkLocked appends to out the shard's records from position pos on that
// match the owner (empty: any) and the states in want, until out holds
// limit records. It returns the position after the last record
// appended when out fills, and a position at or past the end of order
// when the shard runs out first. Callers hold at least the read lock.
func (sh *shard) walkLocked(owner string, want [numStates]bool, pos, limit int, out *[]Record) int {
	if owner != "" {
		positions := sh.byOwner[owner]
		for i := sort.SearchInts(positions, pos); i < len(positions); i++ {
			p := positions[i]
			r := sh.records[sh.order[p]]
			if !want[r.State] {
				continue
			}
			*out = append(*out, *r)
			if len(*out) == limit {
				return p + 1
			}
		}
		return max(pos, len(sh.order))
	}
	for ; pos < len(sh.order); pos++ {
		r := sh.records[sh.order[pos]]
		if !want[r.State] {
			continue
		}
		*out = append(*out, *r)
		if len(*out) == limit {
			return pos + 1
		}
	}
	return pos
}
