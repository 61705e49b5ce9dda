package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of client connections: one per core of the 2-core
// box the benchmark is sized for, so the generator never needs more
// runnable goroutines than it has cores.
const conns = 2

// opKind is what one request does.
type opKind uint8

const (
	opSubmit opKind = iota
	opAccept
	opReject
	opGet
	opListOwner
	opListState
	opKPI
	opAggregates
	opSchedule
	opMonitor
	opExtract // one series through the extraction pipeline
	numOpKinds
)

var opNames = [numOpKinds]string{"submit", "accept", "reject", "get", "list_owner", "list_state", "kpi", "aggregates", "schedule", "monitor", "extract"}

// write reports whether the op changes an offer's state.
func (k opKind) write() bool { return k == opSubmit || k == opAccept || k == opReject }

// request is one operation a generator produced.
type request struct {
	kind   opKind
	method string
	path   string
	body   []byte
	owner  string // offer owner, for the ledger
	id     string // offer ID
}

// generator produces one connection's deterministic request stream.
// done reports each outcome back, with the body of a successful answer,
// so the stream can depend on what the server said (accept what was
// submitted, continue a cursor walk).
type generator interface {
	next() request
	done(r request, ok bool, body []byte)
}

// sample is one timed operation. Times are nanoseconds since the load
// client's epoch; due is when the operation should have been sent, so
// done − due counts the wait a stall imposed on the operations behind it.
type sample struct {
	req             int64
	kind            opKind
	failed          bool // transport error, non-2xx answer, or shed by the overload gate
	due, sent, done int64
	lateNs          int64 // how late the generator itself sent it
}

func (s sample) latencyMs() float64 {
	if s.failed {
		// A failed or shed request misses every latency limit.
		return math.Inf(1)
	}
	return float64(s.done-s.due) / 1e6
}

// tally counts one owner's acknowledged transitions.
type tally struct{ submitted, accepted, rejected int }

// ledger is the bench's own record of what the server acknowledged.
type ledger map[string]*tally

func (l ledger) add(r request) {
	t := l[r.owner]
	if t == nil {
		t = &tally{}
		l[r.owner] = t
	}
	switch r.kind {
	case opSubmit:
		t.submitted++
	case opAccept:
		t.accepted++
	case opReject:
		t.rejected++
	}
}

func (l ledger) merge(o ledger) {
	for owner, t := range o {
		m := l[owner]
		if m == nil {
			m = &tally{}
			l[owner] = m
		}
		m.submitted += t.submitted
		m.accepted += t.accepted
		m.rejected += t.rejected
	}
}

// loadClient drives a service over at most conns HTTP connections, one
// per loop goroutine.
type loadClient struct {
	conns  []*httpConn
	epoch  time.Time
	traced bool // send the request-ID header that joins server spans
	reqID  atomic.Int64
	ledger ledger
}

// phase describes one measured (or warm-up) stretch of traffic: an open
// loop at a fixed rate for a fixed time, or a closed loop over a fixed
// number of operations. Both are a fixed amount of work, so every run
// grows the program's state, and meets its garbage collector, at the same
// points; a closed loop of fixed duration would let a faster run do more
// work and pay for more collection.
type phase struct {
	open     bool          // open loop; closed loop otherwise
	rate     float64       // open loop: requests per second over all connections
	dur      time.Duration // open loop: how long operations are sent
	ops      int           // closed loop: operations over all connections
	periodic []periodic    // operator requests on a timer, beside the traffic
}

// periodic is an operator's request sent on a timer from one connection:
// a scheduling trigger or a monitoring poll. It counts as attempted but
// is neither user traffic nor timed.
type periodic struct {
	conn  int
	every time.Duration
	req   request
}

// phaseResult is what one phase measured.
type phaseResult struct {
	samples []sample // every operation, sorted by due time
	wall    time.Duration
}

// run sends the phase's operations from gens (one per connection) and
// returns once every connection has finished.
func (c *loadClient) run(gens []generator, p phase) phaseResult {
	start := time.Now()
	offset := int64(start.Sub(c.epoch))
	per := make([][]sample, len(gens))
	ledgers := make([]ledger, len(gens))
	// The closed loop's operations are shared, so both connections stay
	// busy until the last one is taken.
	var budget atomic.Int64
	budget.Store(int64(p.ops))
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			ledgers[conn] = ledger{}
			per[conn] = c.conn(conn, gens[conn], p, start, offset, &budget, ledgers[conn])
		}(i)
	}
	wg.Wait()
	res := phaseResult{wall: time.Since(start)}
	for i := range per {
		res.samples = append(res.samples, per[i]...)
		c.ledger.merge(ledgers[i])
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].due < res.samples[j].due })
	return res
}

// conn is one connection's loop.
func (c *loadClient) conn(conn int, gen generator, p phase, start time.Time, offset int64, budget *atomic.Int64, led ledger) []sample {
	var out []sample
	var prevDone time.Duration
	next := make([]time.Duration, len(p.periodic))
	for i, po := range p.periodic {
		next[i] = po.every
	}
	fire := func(r request, due time.Duration) {
		if p.open {
			sleepUntil(start.Add(due))
		}
		sent := time.Since(start)
		id := c.reqID.Add(1)
		status, body, err := c.do(conn, r, id)
		done := time.Since(start)
		ok := err == nil && status/100 == 2
		s := sample{
			req: id, kind: r.kind, failed: !ok,
			due: offset + int64(due), sent: offset + int64(sent), done: offset + int64(done),
			lateNs: int64(sent - max(due, prevDone)),
		}
		out = append(out, s)
		if ok && r.kind.write() {
			led.add(r)
		}
		gen.done(r, ok, body)
		prevDone = done
	}
	for j := 0; ; j++ {
		var due time.Duration
		if p.open {
			if due = time.Duration(float64(j*conns+conn) / p.rate * 1e9); due >= p.dur {
				break
			}
		} else {
			if budget.Add(-1) < 0 {
				break
			}
			due = time.Since(start)
		}
		for i, po := range p.periodic {
			if po.conn == conn && next[i] <= due {
				fire(po.req, next[i])
				next[i] += po.every
				if !p.open {
					due = time.Since(start)
				}
			}
		}
		fire(gen.next(), due)
	}
	return out
}

// timerSlack is how late the kernel typically wakes a nanosleep (its
// default 50 µs timer slack plus wake-up); sleepUntil stops that much
// early and yields for the rest.
const timerSlack = 80 * time.Microsecond

// sleepUntil waits until t. time.Sleep cannot serve an open loop here: the
// runtime parks idle threads in epoll with millisecond timeouts, so a
// 200 µs sleep lasts about a millisecond, which would be charged to every
// request as latency from due. A raw nanosleep wakes within the kernel's
// timer slack instead.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only ends early; the loop below finishes it
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// do sends one request on connection conn.
func (c *loadClient) do(conn int, r request, id int64) (int, []byte, error) {
	header := ""
	if c.traced {
		header = reqHeader + ": " + strconv.FormatInt(id, 10)
	}
	return c.conns[conn].do(r.method, r.path, r.body, header)
}

// --- phase summaries -----------------------------------------------------

// served reports whether a sample counts towards latency and capacity:
// periodic operator requests are counted as attempted but not timed.
func served(s sample) bool { return s.kind != opSchedule && s.kind != opMonitor }

// latencies returns the latency of every served sample matching keep, in
// due order.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if served(s) && (keep == nil || keep(s)) {
			out = append(out, s.latencyMs())
		}
	}
	return out
}

// capacity is acknowledged served operations per second of the phase.
func capacity(r phaseResult) (float64, int) {
	n := 0
	for _, s := range r.samples {
		if served(s) && !s.failed {
			n++
		}
	}
	return float64(n) / r.wall.Seconds(), n
}

// counts returns attempted and failed (failed or shed) operations.
func counts(rs ...phaseResult) (attempted, failed int) {
	for _, r := range rs {
		for _, s := range r.samples {
			attempted++
			if s.failed {
				failed++
			}
		}
	}
	return attempted, failed
}

// tails records the open loop's windowed p90 and p99 latency. They are
// printed and written to -json with their sample and window counts but
// not gated: on the 2-core box the benchmark is sized for they spread
// past any bound BENCHMARK.json may set (README.md, Stability).
func tails(res *result, open phaseResult) {
	lat := latencies(open.samples, nil)
	for _, pct := range []int{90, 99} {
		v, windows := windowedQuantile(lat, float64(pct)/100, tailWindow)
		res.extra(fmt.Sprintf("latency_p%d_ms", pct), v, "ms", len(lat))
		res.Meta["tail_windows"] = windows // the same for every percentile
	}
}

// latenessP99Ms is the 99th percentile of how late the generator sent.
func latenessP99Ms(r phaseResult) float64 {
	xs := make([]float64, 0, len(r.samples))
	for _, s := range r.samples {
		xs = append(xs, float64(s.lateNs)/1e6)
	}
	return quantile(sortedCopy(xs), 0.99)
}
