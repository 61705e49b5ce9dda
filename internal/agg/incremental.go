package agg

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/flexoffer"
)

// groupKey identifies one grouping bucket of the incremental aggregator.
// Conforming offers use the same (EST bucket, time-flexibility bucket,
// slice-alignment phase) key as the batch AggregateSet; non-conforming
// offers — non-uniform slices or a total-energy constraint — are isolated
// in a solo bucket keyed by their own ID, mirroring the batch path that
// gives every such offer a singleton aggregate.
type groupKey struct {
	est   int64
	tf    int64
	phase int64
	solo  string
}

// group is one bucket's live membership plus its cached aggregation.
// Mutations mark the group dirty; the aggregates are rebuilt lazily on the
// next Aggregates call, so one lifecycle event costs O(1) bookkeeping now
// and O(group) rebuilding later — never a full recompute of every bucket.
type group struct {
	members map[string]*flexoffer.FlexOffer
	aggs    []*Aggregate
	dirty   bool
}

// Incremental maintains the aggregation of a changing offer population.
// Offers join with Add and leave with Remove; Aggregates returns the same
// partition and the same aggregated profiles that a batch AggregateSet over
// the current membership would (proven by the equivalence property test),
// provided every conforming offer's slice duration equals the configured
// one — which holds by construction when offers come from a store whose
// extraction resolution matches the scheduling resolution.
//
// All methods are safe for concurrent use.
type Incremental struct {
	p     Params
	slice time.Duration

	mu      sync.Mutex
	members map[string]*flexoffer.FlexOffer // guarded by mu: every live offer by ID
	keyOf   map[string]groupKey             // guarded by mu: offer ID -> its bucket
	groups  map[groupKey]*group             // guarded by mu

	joined   uint64 // guarded by mu: lifetime Add count
	left     uint64 // guarded by mu: lifetime successful Remove count
	rebuilds uint64 // guarded by mu: lifetime group rebuilds
}

// NewIncremental builds an incremental aggregator. slice is the slice
// duration conforming offers must share (normally the scheduler's
// resolution); offers with other or mixed slice durations still aggregate,
// as singletons.
func NewIncremental(p Params, slice time.Duration) (*Incremental, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if slice <= 0 {
		return nil, fmt.Errorf("%w: slice duration %v", ErrParams, slice)
	}
	return &Incremental{
		p:       p,
		slice:   slice,
		members: make(map[string]*flexoffer.FlexOffer),
		keyOf:   make(map[string]groupKey),
		groups:  make(map[groupKey]*group),
	}, nil
}

// keyFor buckets one offer, matching the batch AggregateSet key exactly.
func (inc *Incremental) keyFor(f *flexoffer.FlexOffer) groupKey {
	if uniformSlices(f, inc.slice) != nil || f.TotalConstraint != nil {
		return groupKey{solo: f.ID}
	}
	k := groupKey{
		est:   f.EarliestStart.UnixNano() / int64(inc.p.ESTWindow),
		phase: f.EarliestStart.UnixNano() % int64(inc.slice),
	}
	if inc.p.MaxTimeFlexGap > 0 {
		k.tf = int64(f.TimeFlexibility() / inc.p.MaxTimeFlexGap)
	} else {
		k.tf = int64(f.TimeFlexibility())
	}
	return k
}

// Add joins an offer to its aggregate bucket in O(1); the bucket is
// re-aggregated on the next Aggregates call. The offer is stored by
// reference and must not be mutated afterwards.
func (inc *Incremental) Add(f *flexoffer.FlexOffer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if _, dup := inc.members[f.ID]; dup {
		return fmt.Errorf("%w: duplicate offer %s", ErrOffer, f.ID)
	}
	k := inc.keyFor(f)
	g := inc.groups[k]
	if g == nil {
		g = &group{members: make(map[string]*flexoffer.FlexOffer)}
		inc.groups[k] = g
	}
	g.members[f.ID] = f
	g.dirty = true
	inc.members[f.ID] = f
	inc.keyOf[f.ID] = k
	inc.joined++
	return nil
}

// Remove takes an offer out of its bucket in O(1) and reports whether it
// was present.
func (inc *Incremental) Remove(id string) bool {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	k, ok := inc.keyOf[id]
	if !ok {
		return false
	}
	delete(inc.members, id)
	delete(inc.keyOf, id)
	g := inc.groups[k]
	delete(g.members, id)
	if len(g.members) == 0 {
		delete(inc.groups, k)
	} else {
		g.dirty = true
	}
	inc.left++
	return true
}

// Reset empties the aggregator in place: every member and group is
// dropped, while the lifetime Joined/Left/Rebuilds counters are kept, so
// they never step backwards. Members dropped by Reset are not counted as
// having left.
func (inc *Incremental) Reset() {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	clear(inc.members)
	clear(inc.keyOf)
	clear(inc.groups)
}

// Contains reports whether the offer is currently aggregated.
func (inc *Incremental) Contains(id string) bool {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	_, ok := inc.members[id]
	return ok
}

// Aggregates rebuilds every dirty bucket and returns the full current
// aggregation in deterministic order (conforming buckets by EST /
// time-flexibility / phase, then solo buckets by offer ID). Clean buckets
// are returned from cache, so the cost is proportional to the membership
// churn since the previous call, not to the population.
func (inc *Incremental) Aggregates() ([]*Aggregate, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	keys := make([]groupKey, 0, len(inc.groups))
	for k := range inc.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if (a.solo == "") != (b.solo == "") {
			return a.solo == ""
		}
		if a.solo != "" {
			return a.solo < b.solo
		}
		if a.est != b.est {
			return a.est < b.est
		}
		if a.tf != b.tf {
			return a.tf < b.tf
		}
		return a.phase < b.phase
	})
	var out []*Aggregate
	for _, k := range keys {
		g := inc.groups[k]
		if g.dirty {
			if err := inc.rebuildLocked(k, g); err != nil {
				return nil, err
			}
		}
		out = append(out, g.aggs...)
	}
	return out, nil
}

// rebuildLocked re-aggregates one bucket through the same canonical path
// the batch aggregator uses — members sorted by (earliest start, ID) and
// chunked by MaxGroupSize — so a rebuilt bucket is bitwise-identical to
// its batch counterpart. Called with inc.mu held.
func (inc *Incremental) rebuildLocked(k groupKey, g *group) error {
	members := make(flexoffer.Set, 0, len(g.members))
	for _, f := range g.members {
		members = append(members, f)
	}
	members.SortByEarliestStart()
	aggs := make([]*Aggregate, 0, 1)
	chunk := 0
	for from := 0; from < len(members); {
		to := len(members)
		if inc.p.MaxGroupSize > 0 && to-from > inc.p.MaxGroupSize {
			to = from + inc.p.MaxGroupSize
		}
		a, err := aggregate(members[from:to], inc.slice, incrementalID(k, chunk))
		if err != nil {
			return err
		}
		aggs = append(aggs, a)
		chunk++
		from = to
	}
	g.aggs = aggs
	g.dirty = false
	inc.rebuilds++
	return nil
}

// incrementalID names one aggregate deterministically from its bucket key
// and chunk index, so the same membership always yields the same ID across
// calls and restarts.
func incrementalID(k groupKey, chunk int) string {
	if k.solo != "" {
		return "agg-solo-" + k.solo
	}
	return fmt.Sprintf("agg-%d.%d.%d-%d", k.est, k.tf, k.phase, chunk)
}

// IncrementalStats is a point-in-time snapshot of the aggregator.
type IncrementalStats struct {
	// Members is the number of offers currently aggregated.
	Members int `json:"members"`
	// Groups is the number of live grouping buckets.
	Groups int `json:"groups"`
	// Aggregates counts aggregates across buckets, as of each bucket's
	// last rebuild (a dirty bucket reports its previous size until the
	// next Aggregates call).
	Aggregates int `json:"aggregates"`
	// Joined and Left are lifetime membership churn counters.
	Joined uint64 `json:"joined"`
	Left   uint64 `json:"left"`
	// Rebuilds is the lifetime number of bucket re-aggregations — the
	// work actually done, versus the full recomputes a batch aggregator
	// would have run.
	Rebuilds uint64 `json:"rebuilds"`
}

// Stats returns current counters without forcing a rebuild.
func (inc *Incremental) Stats() IncrementalStats {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	st := IncrementalStats{
		Members:  len(inc.members),
		Groups:   len(inc.groups),
		Joined:   inc.joined,
		Left:     inc.left,
		Rebuilds: inc.rebuilds,
	}
	for _, g := range inc.groups {
		st.Aggregates += len(g.aggs)
	}
	return st
}
