package main

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/kpi"
	"repro/internal/market"
	"repro/internal/sched"
)

// daemonWorkload is a workload served by mirabeld.
type daemonWorkload struct {
	name          string
	journaled     bool
	fsync         string
	scheduleEvery time.Duration // the daemon's periodic scheduler (0: off)
	clock         time.Time     // -clock: the pinned store and scheduler clock
	rate          float64       // open-loop requests per second
	nominal       float64       // closed-loop capacity on the 2-core box: sizes the closed loop to the closed phase
	schedTrigger  time.Duration // the client POSTs /schedule/run this often (0: never)
	portfolio     bool          // portfolio read/write mix; ingest otherwise
	recoverFirst  bool          // SIGKILL right after seeding, measure on the recovered daemon
	recoverAfter  bool          // SIGKILL after the traffic, then check durability
	peakReduction bool          // require kpi peak_reduction > 0

	// households × days of 15-min series from seriesStart seed the store
	// through -seed-dir (0 households: no seeding); -quick seeds
	// quickHouses × quickDays instead.
	households, days, quickHouses, quickDays int
	seriesStart                              time.Time
}

// maxLatenessMs bounds the generator's own lateness at p99: beyond it the
// generator, not the program, was the bottleneck and the run is invalid.
const maxLatenessMs = 5

// The ingest workloads offer ≈500 offers/s (1000 req/s) in the open
// loop, half of what the same traffic reached with cmd/flexload's two
// workers, which also assign, and a fifth of ingest-always's capacity here.
// The portfolio offers the same fifth of its nominal capacity: other
// tenants of the 2-core box's host slow the program by up to 40% at
// times, and an open loop near capacity then measures its own queue.
// nominal is the closed-loop capacity measured on the 2-core box; it
// sizes the closed loop.
var (
	ingestAlways = daemonWorkload{
		name: "ingest-always", journaled: true, fsync: "always", scheduleEvery: 2 * time.Second,
		clock: time.Date(2012, 6, 4, 12, 0, 0, 0, time.UTC),
		rate:  1000, nominal: 4800, recoverAfter: true, peakReduction: true,
	}
	ingestMemory = daemonWorkload{
		name: "ingest-memory", scheduleEvery: 2 * time.Second,
		clock: ingestAlways.clock,
		rate:  1000, nominal: 17000,
	}
	// portfolio pins the clock three days before the series so that no
	// seeded offer's acceptance deadline lies before it.
	portfolio = daemonWorkload{
		name: "portfolio", journaled: true, fsync: "interval",
		clock:       time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC),
		seriesStart: time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC),
		households:  1000, days: 28, quickHouses: 100, quickDays: 7,
		rate: 600, nominal: 3000, schedTrigger: 5 * time.Second, portfolio: true, recoverFirst: true,
	}
)

func (w daemonWorkload) run(e *env) (*result, error) {
	res := newResult(w.name, e.mode())
	t := e.timing()
	cfg := daemonConfig{shards: 4, scheduleEvery: w.scheduleEvery, clock: w.clock}
	if w.journaled {
		cfg.dataDir, cfg.fsync = filepath.Join(e.work, "data"), w.fsync
	}
	res.Meta["clock"] = w.clock.Format(time.RFC3339)
	res.Meta["seed"] = e.opts.seed
	if houses, days := w.households, w.days; houses > 0 {
		if e.opts.quick {
			houses, days = w.quickHouses, w.quickDays
		}
		cfg.seedDir = filepath.Join(e.work, "households")
		e.progress("%s: generating %d households × %d days", w.name, houses, days)
		if err := writeHouseholds(cfg.seedDir, houses, e.opts.seed, w.seriesStart, days, scheduleResolution); err != nil {
			return nil, err
		}
		res.Meta["households"] = fmt.Sprintf("%d × %d days from %s", houses, days, w.seriesStart.Format("2006-01-02"))
	}
	res.Meta["rate_req_s"] = w.rate
	res.Meta["flags"] = strings.Join(cfg.args("ADDR"), " ")
	closedOps := int(w.nominal * t.closed.Seconds())
	res.Meta["phases"] = fmt.Sprintf("warm-up %v, open loop %v at %g req/s, closed loop of %d requests, %d connections", t.warmup, t.open, w.rate, closedOps, conns)

	var tr *tracer
	launch := e.launcher(nil)
	var ref seedTotals
	if e.opts.trace {
		if cfg.seedDir != "" {
			var err error
			if ref, err = e.referenceSeed(cfg); err != nil {
				return nil, err
			}
		}
		tr = newTracer()
		tr.on.Store(true)
		launch = e.launcher(tr)
	}

	// d is the daemon under load; ctl and aux are the benchmark's two
	// connections to it. ctl also carries every control request between
	// phases, so no third connection is ever open.
	var d daemon
	var ctl, aux *httpConn
	attach := func(nd daemon) {
		if ctl != nil {
			ctl.close()
			aux.close()
		}
		d, ctl, aux = nd, newConn(nd.addr()), newConn(nd.addr())
	}
	defer func() {
		if ctl != nil {
			ctl.close()
			aux.close()
		}
		if d != nil {
			d.kill()
		}
	}()
	var setups []float64
	for spent := time.Duration(0); ; {
		if cfg.dataDir != "" {
			if err := os.RemoveAll(cfg.dataDir); err != nil {
				return nil, err
			}
		}
		e.progress("%s: set-up %d", w.name, len(setups)+1)
		dk, dur, err := launch(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
		if spent += dur; !t.setups.more(len(setups), spent) {
			attach(dk)
			break
		}
		dk.kill()
	}
	if cfg.seedDir != "" {
		seeded, err := fetchSeedTotals(ctl)
		if err != nil {
			return nil, err
		}
		res.Meta["seeded_offers"] = seeded.offers
		if e.opts.trace {
			res.check("traced assembly reproduces mirabeld's seeding", seeded.matches(ref),
				"in process %d offers %.6f kWh, reference %d offers %.6f kWh", seeded.offers, seeded.kwh, ref.offers, ref.kwh)
		}
	}

	if w.recoverFirst {
		before, err := storeStats(ctl)
		if err != nil {
			return nil, err
		}
		nd, err := crash(e, res, launch, d, &cfg)
		if err != nil {
			d = nil
			return nil, err
		}
		attach(nd)
		after, err := storeStats(ctl)
		if err != nil {
			return nil, err
		}
		res.check("/stats identical across SIGKILL and recovery", before == after, "before %+v, after %+v", before, after)
	}

	var gens []generator
	var perOwner map[string]int
	if w.portfolio {
		offers, err := walkOffered(ctl)
		if err != nil {
			return nil, err
		}
		perOwner = map[string]int{}
		for _, o := range offers {
			perOwner[o.owner]++
		}
		gens = newPortfolioGens(e.opts.seed, offers)
	} else {
		gens = newIngestGens(e.opts.seed, w.clock)
	}

	lc := &loadClient{conns: []*httpConn{ctl, aux}, epoch: time.Now(), ledger: ledger{}}
	if tr != nil {
		lc.epoch, lc.traced = tr.epoch, true
	}
	bg := w.periodic()
	tr.setOn(false)
	e.progress("%s: warm-up", w.name)
	warm := lc.run(gens, phase{open: true, rate: w.rate, dur: t.warmup, periodic: bg})
	var untracedOpen, untracedClosed phaseResult
	if tr != nil {
		e.progress("%s: untraced pass", w.name)
		untracedOpen = lc.run(gens, phase{open: true, rate: w.rate, dur: t.open / 2, periodic: bg})
		untracedClosed = lc.run(gens, phase{ops: closedOps / 2, periodic: bg})
	}

	m0, err := fetchScrape(ctl)
	if err != nil {
		return nil, err
	}
	s0, err := schedStatus(ctl)
	if err != nil {
		return nil, err
	}
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	tr.setOn(true)
	measureStart := time.Now()
	e.progress("%s: measuring", w.name)
	open := lc.run(gens, phase{open: true, rate: w.rate, dur: t.open, periodic: bg})
	// Peak memory after the open loop: a fixed amount of work at a fixed
	// rate, so the store it holds does not depend on how fast this run's
	// closed loop happens to be.
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	closed := lc.run(gens, phase{ops: closedOps, periodic: bg})
	wall := time.Since(measureStart)
	m1, err := fetchScrape(ctl)
	if err != nil {
		return nil, err
	}
	s1, err := schedStatus(ctl)
	if err != nil {
		return nil, err
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)

	res.Attempted, res.Failed = counts(untracedOpen, untracedClosed, warm, open, closed)
	if tr == nil {
		res.metric("setup_s", median(setups), "s", len(setups))
		res.metric("peak_rss_mb", rss, "MB", 1)
		capOps, capN := capacity(closed)
		lat := latencies(open.samples, nil)
		res.extra(capacityMetric, capOps, "1/s", capN)
		res.extra(latencyMetric, quantile(sortedCopy(lat), 0.50), "ms", len(lat))
	}
	w.extras(res, open, s0, s1, m0, m1, wall)

	// A -quick smoke run sends a few hundred requests, so its p99 is one of
	// its two or three latest sends and one hiccup of the process it shares
	// with the stack decides it; it checks the plumbing, not a measurement.
	if !e.opts.quick {
		late := latenessP99Ms(open)
		res.check("generator lateness p99 <= 5 ms", late <= maxLatenessMs, "%.3f ms over %d open-loop requests", late, len(open.samples))
	}
	resyncs := m1.value("sched_resyncs_total") + m1.value("kpi_resyncs_total")
	res.check("no event-stream resyncs", resyncs == 0, "sched_resyncs_total + kpi_resyncs_total = %g", resyncs)
	if w.scheduleEvery > 0 {
		// One more round, after the measurement, so every offer the
		// traffic accepted has met the scheduler before the KPIs are read.
		if err := ctl.post("/schedule/run"); err != nil {
			return nil, err
		}
	}
	var rep kpi.Report
	if err := ctl.getJSON("/kpi", &rep); err != nil {
		return nil, err
	}
	reconcile(res, "KPI fold matches the acknowledged ledger", rep, lc.ledger, perOwner)
	members := 0
	for _, run := range s1.History {
		members += run.Members
	}
	res.check("KPI assigned >= scheduler members", rep.Global.Assigned >= uint64(members),
		"kpi assigned %d, members over %d rounds %d", rep.Global.Assigned, len(s1.History), members)
	if w.peakReduction {
		res.check("KPI peak reduction > 0", rep.Global.PeakReduction > 0,
			"peak_reduction %.6f at clock %s (%d assigned)", rep.Global.PeakReduction, w.clock.Format(time.RFC3339), rep.Global.Assigned)
	}

	if tr != nil {
		res.Metrics = daemonLayers(layerInput{
			tr: tr, open: open, closed: closed, m0: m0, m1: m1, s0: s0, s1: s1,
			mem0: mem0, mem1: mem1, wall: wall, untracedOpen: untracedOpen, untracedClosed: untracedClosed,
		}, res)
	}

	if w.recoverAfter {
		nd, err := crash(e, res, launch, d, &cfg)
		if err != nil {
			d = nil
			return nil, err
		}
		attach(nd)
		var after kpi.Report
		if err := ctl.getJSON("/kpi", &after); err != nil {
			return nil, err
		}
		reconcile(res, "every acknowledged transition survives SIGKILL", after, lc.ledger, perOwner)
	}
	if tr != nil {
		if recov := recoveryBreakdown(tr); recov.open > 0 {
			res.extra("trace.recovery_open_s", recov.open, "s", recov.n)
			res.extra("trace.recovery_read_s", recov.read, "s", recov.n)
		}
		path := filepath.Join(e.opts.traceDir, "trace-"+w.name+".json")
		if err := tr.writeFile(path, w.name, e.opts.seed, clientSpans(open, closed)); err != nil {
			return nil, err
		}
		res.Meta["trace_file"] = path
	}
	return res, nil
}

// monitorEvery is the monitoring period: connection 1 GETs /metrics and
// /schedule this often, as an operator's dashboard would. The polls also
// drain the KPI and scheduler services' bounded event queues, which
// otherwise only reads and rounds drain; at full closed-loop speed two
// seconds of events can pass their high-water mark.
const monitorEvery = time.Second

// periodic lists the operator requests beside the workload's traffic.
func (w daemonWorkload) periodic() []periodic {
	ps := []periodic{
		{conn: 1, every: monitorEvery, req: request{kind: opMonitor, method: http.MethodGet, path: "/metrics"}},
		{conn: 1, every: monitorEvery, req: request{kind: opMonitor, method: http.MethodGet, path: "/schedule"}},
	}
	if w.schedTrigger > 0 {
		ps = append(ps, periodic{conn: 0, every: w.schedTrigger, req: request{kind: opSchedule, method: http.MethodPost, path: "/schedule/run"}})
	}
	return ps
}

// extras records the workload-specific numbers the gated set leaves out:
// the write/read split, scheduling rounds and the error ratio.
func (w daemonWorkload) extras(res *result, open phaseResult, s0, s1 sched.Status, m0, m1 scrape, wall time.Duration) {
	for _, split := range []struct {
		name string
		keep func(sample) bool
	}{
		{"write", func(s sample) bool { return s.kind.write() }},
		{"read", func(s sample) bool { return !s.kind.write() }},
	} {
		xs := latencies(open.samples, split.keep)
		if len(xs) == 0 {
			continue
		}
		res.extra(split.name+"_p50_ms", quantile(sortedCopy(xs), 0.5), "ms", len(xs))
		p99, _ := windowedQuantile(xs, 0.99, tailWindow)
		res.extra(split.name+"_p99_ms", p99, "ms", len(xs))
	}
	var rounds []float64
	for _, run := range s1.History {
		if run.Run > s0.Runs {
			rounds = append(rounds, run.DurationSeconds*1000)
		}
	}
	if len(rounds) > 0 {
		res.extra("sched_round_ms", median(rounds), "ms", len(rounds))
	}
	tails(res, open)
	attempted, failed := counts(open)
	res.extra("error_ratio", float64(failed)/float64(max(attempted, 1)), "ratio", attempted)
	res.extra("generator_lateness_p99_ms", latenessP99Ms(open), "ms", len(open.samples))
	res.extra("wal_fsyncs_per_s", delta(m0, m1, "wal_fsyncs_total")/wall.Seconds(), "1/s", 1)
}

// crash kills d like SIGKILL, restarts the same configuration without
// seeding, and records the recovery time.
func crash(e *env, res *result, launch launcher, d daemon, cfg *daemonConfig) (daemon, error) {
	d.kill()
	cfg.seedDir = ""
	e.progress("%s: SIGKILL and recovery", res.Workload)
	nd, rec, err := launch(*cfg)
	if err != nil {
		return nil, fmt.Errorf("recover after SIGKILL: %w", err)
	}
	res.extra("recovery_s", rec.Seconds(), "s", 1)
	return nd, nil
}

// launcher returns how this run starts daemons: mirabeld itself, or the
// in-process assembly (traced when tr is set, and always for -quick).
func (e *env) launcher(tr *tracer) launcher {
	if tr != nil || e.opts.quick {
		return func(cfg daemonConfig) (daemon, time.Duration, error) {
			s, dur, err := startStack(cfg, tr)
			if err != nil {
				return nil, 0, err
			}
			return s, dur, nil
		}
	}
	return func(cfg daemonConfig) (daemon, time.Duration, error) {
		return startExec(e.mirabeld, e.logf, cfg)
	}
}

// seedTotals is what a set-up's seeding collected.
type seedTotals struct {
	offers uint64
	kwh    float64
}

// matches compares two seedings: the counts exactly, the energy up to
// float summation order (two extraction workers finish in either order).
func (s seedTotals) matches(o seedTotals) bool {
	return s.offers == o.offers && math.Abs(s.kwh-o.kwh) <= 1e-9*math.Max(1, math.Abs(o.kwh))
}

func fetchSeedTotals(h *httpConn) (seedTotals, error) {
	var rep kpi.Report
	if err := h.getJSON("/kpi?owners=false", &rep); err != nil {
		return seedTotals{}, err
	}
	return seedTotals{rep.Global.Submitted, rep.Global.OfferedKWh}, nil
}

// referenceSeed seeds cfg once the way an end-to-end run does (mirabeld
// itself; the untraced assembly under -quick) and returns what it
// collected, for the traced assembly to reproduce.
func (e *env) referenceSeed(cfg daemonConfig) (seedTotals, error) {
	if cfg.dataDir != "" {
		cfg.dataDir += "-reference"
		defer os.RemoveAll(cfg.dataDir)
	}
	e.progress("reference seeding")
	d, _, err := e.launcher(nil)(cfg)
	if err != nil {
		return seedTotals{}, err
	}
	defer d.kill()
	h := newConn(d.addr())
	defer h.close()
	return fetchSeedTotals(h)
}

func storeStats(h *httpConn) (market.Counts, error) {
	var c market.Counts
	return c, h.getJSON("/stats", &c)
}

func schedStatus(h *httpConn) (sched.Status, error) {
	var s sched.Status
	return s, h.getJSON("/schedule", &s)
}

// walkOffered lists every offered offer through the paginated listing.
func walkOffered(h *httpConn) ([]seededOffer, error) {
	var out []seededOffer
	cursor := ""
	for {
		path := "/offers?state=offered&limit=1000"
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		var page struct {
			Records []struct {
				Offer struct {
					ID         string `json:"id"`
					ConsumerID string `json:"consumer_id"`
				} `json:"offer"`
			} `json:"records"`
			NextCursor string `json:"next_cursor"`
		}
		if err := h.getJSON(path, &page); err != nil {
			return nil, err
		}
		for _, r := range page.Records {
			out = append(out, seededOffer{id: r.Offer.ID, owner: r.Offer.ConsumerID})
		}
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// reconcile checks the server's per-owner KPI fold against the bench's
// ledger of acknowledged transitions: submissions (plus the owner's
// seeded offers), acceptances and rejections must agree exactly.
func reconcile(res *result, name string, rep kpi.Report, led ledger, seeded map[string]int) {
	owners := map[string]bool{}
	for o := range led {
		owners[o] = true
	}
	for o := range seeded {
		owners[o] = true
	}
	var bad []string
	for o := range owners {
		want := tally{submitted: seeded[o]}
		if t := led[o]; t != nil {
			want.submitted += t.submitted
			want.accepted, want.rejected = t.accepted, t.rejected
		}
		got := rep.Owners[o]
		if int(got.Submitted) != want.submitted || int(got.Accepted) != want.accepted || int(got.Rejected) != want.rejected {
			bad = append(bad, fmt.Sprintf("%s: kpi %d/%d/%d, ledger %d/%d/%d", o,
				got.Submitted, got.Accepted, got.Rejected, want.submitted, want.accepted, want.rejected))
		}
	}
	sort.Strings(bad)
	detail := fmt.Sprintf("%d owners, submitted/accepted/rejected equal", len(owners))
	if len(bad) > 0 {
		detail = fmt.Sprintf("%d of %d owners differ, first: %s", len(bad), len(owners), bad[0])
	}
	res.check(name, len(bad) == 0 && len(owners) > 0, "%s", detail)
}

// setOn switches span recording; a nil tracer ignores it.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// clientSpans turns the traced pass's samples into client spans.
func clientSpans(rs ...phaseResult) []span {
	var out []span
	for _, r := range rs {
		for _, s := range r.samples {
			out = append(out, span{Kind: spanClient, Req: s.req, Shard: -1, Start: s.sent, End: s.done, Due: s.due})
		}
	}
	return out
}
