package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/flexoffer"
)

// ingestGen is one connection's ingest stream: every offer is submitted
// and then, once the submit was acknowledged, accepted. Assignment is the
// scheduler's job, never the client's. As in cmd/flexload, each connection
// is one owner.
type ingestGen struct {
	rng     *rand.Rand
	owner   string
	clock   time.Time
	n       int
	pending *request // the accept due after an acknowledged submit
}

func newIngestGens(seed int64, clock time.Time) []generator {
	gens := make([]generator, conns)
	for c := range gens {
		gens[c] = &ingestGen{
			rng:   rand.New(rand.NewSource(seed*1000 + int64(c))),
			owner: fmt.Sprintf("ingest-%d-c%d", seed, c),
			clock: clock,
		}
	}
	return gens
}

func (g *ingestGen) next() request {
	if r := g.pending; r != nil {
		g.pending = nil
		return *r
	}
	g.n++
	offer := ingestOffer(g.rng, g.clock, fmt.Sprintf("%s-%07d", g.owner, g.n), g.owner)
	body, err := json.Marshal(offer)
	if err != nil {
		panic(fmt.Sprintf("flexbench: encode generated offer: %v", err)) // a FlexOffer always encodes
	}
	return request{kind: opSubmit, method: http.MethodPost, path: "/offers", body: body, owner: offer.ConsumerID, id: offer.ID}
}

func (g *ingestGen) done(r request, ok bool, _ []byte) {
	if r.kind == opSubmit && ok {
		g.pending = &request{kind: opAccept, method: http.MethodPost, path: "/offers/" + r.id + "/accept", owner: r.owner, id: r.id}
	}
}

// ingestOffer builds one schedulable offer the way cmd/flexload's
// makeOffer does, relative to the pinned clock instead of the wall clock:
// 2–8 slices of the scheduling resolution with randomised energy bounds,
// acceptance and assignment deadlines 1 h and 2 h out, and a start window
// from 3 h to 8 h after the clock. The clock sits on the 15-min grid, so
// the window does too, and it lies inside the scheduler's 24 h horizon.
func ingestOffer(rng *rand.Rand, clock time.Time, id, owner string) *flexoffer.FlexOffer {
	slices := 2 + rng.Intn(7)
	profile := make([]flexoffer.Slice, slices)
	for k := range profile {
		lo := 0.1 + rng.Float64()
		profile[k] = flexoffer.Slice{Duration: scheduleResolution, MinEnergy: lo, MaxEnergy: lo + rng.Float64()}
	}
	fo := &flexoffer.FlexOffer{
		ID:             id,
		ConsumerID:     owner,
		CreationTime:   clock,
		AcceptanceTime: clock.Add(time.Hour),
		AssignmentTime: clock.Add(2 * time.Hour),
		EarliestStart:  clock.Add(3 * time.Hour),
		LatestStart:    clock.Add(8 * time.Hour),
		Profile:        profile,
	}
	if err := fo.Validate(); err != nil {
		panic(fmt.Sprintf("flexbench: generated invalid offer: %v", err)) // valid by construction
	}
	return fo
}

// seededOffer is one offer the portfolio's startup seeding collected.
type seededOffer struct{ id, owner string }

// The portfolio mix. Reads take 60% of operations and writes (accept or
// reject a seeded offer) 40%, with owners skewed Zipf(1.1). No source
// weighs the five reads or the two writes against each other, so each
// read kind takes an equal 12% and accept and reject an equal 20%. Pages
// hold 100 records, cmd/flexload's list page; GET /aggregates asks for 50.
const (
	readShare     = 0.60
	zipfS         = 1.1
	listPage      = 100
	aggregatesCap = 50
)

// readKinds are the portfolio's reads, drawn with equal weight.
var readKinds = [...]opKind{opListOwner, opListState, opGet, opKPI, opAggregates}

// portfolioGen is one connection's portfolio stream. Owners are drawn
// Zipf(zipfS) over a seed-shuffled rank order; each connection decides
// only its own half of every owner's seeded offers, so the two streams
// never race for one offer and each stays deterministic on its own.
type portfolioGen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	owners []string   // by popularity rank
	undec  [][]string // per rank: this connection's undecided offers
	left   int        // undecided offers over all ranks
	ids    []string   // every seeded offer, for point reads
	cursor string     // the state-filtered walk's position
}

func newPortfolioGens(seed int64, offers []seededOffer) []generator {
	byOwner := map[string][]string{}
	ids := make([]string, 0, len(offers))
	for _, o := range offers {
		byOwner[o.owner] = append(byOwner[o.owner], o.id)
		ids = append(ids, o.id)
	}
	sort.Strings(ids)
	owners := make([]string, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	rand.New(rand.NewSource(seed)).Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })

	gens := make([]generator, conns)
	for c := range gens {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		g := &portfolioGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(owners)-1)), owners: owners, ids: ids}
		g.undec = make([][]string, len(owners))
		for rank, o := range owners {
			mine := byOwner[o]
			sort.Strings(mine)
			for i := c; i < len(mine); i += conns {
				g.undec[rank] = append(g.undec[rank], mine[i])
			}
			g.left += len(g.undec[rank])
		}
		gens[c] = g
	}
	return gens
}

func (g *portfolioGen) next() request {
	if u := g.rng.Float64(); u < readShare {
		switch readKinds[int(u/readShare*float64(len(readKinds)))] {
		case opListOwner:
			owner := g.owners[g.zipf.Uint64()]
			return request{kind: opListOwner, method: http.MethodGet,
				path: fmt.Sprintf("/offers?owner=%s&limit=%d", url.QueryEscape(owner), listPage)}
		case opListState:
			path := fmt.Sprintf("/offers?state=offered&limit=%d", listPage)
			if g.cursor != "" {
				path += "&cursor=" + url.QueryEscape(g.cursor)
			}
			return request{kind: opListState, method: http.MethodGet, path: path}
		case opGet:
			return g.get()
		case opKPI:
			return request{kind: opKPI, method: http.MethodGet, path: "/kpi?owners=false"}
		default:
			return request{kind: opAggregates, method: http.MethodGet, path: fmt.Sprintf("/aggregates?limit=%d", aggregatesCap)}
		}
	}
	if g.left == 0 {
		return g.get()
	}
	// The drawn owner may have run out of offers on this connection; the
	// next owner in rank order with one left takes the write.
	rank := int(g.zipf.Uint64())
	for len(g.undec[rank]) == 0 {
		rank = (rank + 1) % len(g.undec)
	}
	queue := g.undec[rank]
	id := queue[len(queue)-1]
	g.undec[rank] = queue[:len(queue)-1]
	g.left--
	kind, verb := opAccept, "accept"
	if g.rng.Intn(2) == 1 {
		kind, verb = opReject, "reject"
	}
	return request{kind: kind, method: http.MethodPost, path: "/offers/" + id + "/" + verb, owner: g.owners[rank], id: id}
}

func (g *portfolioGen) get() request {
	return request{kind: opGet, method: http.MethodGet, path: "/offers/" + g.ids[g.rng.Intn(len(g.ids))]}
}

func (g *portfolioGen) done(r request, ok bool, body []byte) {
	if r.kind == opListState {
		g.cursor = ""
		if ok {
			g.cursor = nextCursor(body)
		}
	}
}

// nextCursor reads a page's next_cursor without decoding its records: the
// field closes the hand-built page, and decoding a whole page would put
// this process's decode cost on the shared CPU.
func nextCursor(page []byte) string {
	key := []byte(`"next_cursor":`)
	i := bytes.LastIndex(page, key)
	if i < 0 {
		return ""
	}
	var cursor string
	if json.NewDecoder(bytes.NewReader(page[i+len(key):])).Decode(&cursor) != nil {
		return ""
	}
	return cursor
}
