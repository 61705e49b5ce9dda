package main

import (
	"runtime"
	"time"

	"repro/internal/sched"
)

// layerInput is what a traced daemon run hands the per-layer computation.
type layerInput struct {
	tr           *tracer
	open, closed phaseResult
	m0, m1       scrape // /metrics before and after the measured phases
	s0, s1       sched.Status
	mem0, mem1   runtime.MemStats
	wall         time.Duration
	// untracedOpen and untracedClosed are the pass with recording off.
	untracedOpen, untracedClosed phaseResult
}

// reqSpans are the server spans of one request.
type reqSpans struct{ outer, admitted, route span }

func (r reqSpans) complete() bool { return r.outer.End > 0 && r.admitted.End > 0 && r.route.End > 0 }

// ns is a span's duration in nanoseconds.
func ns(s span) float64 { return float64(s.End - s.Start) }

// daemonLayers computes every per-layer metric of a traced daemon run and
// records the millisecond breakdown behind the shares as extras.
func daemonLayers(in layerInput, res *result) []metric {
	v, n := map[string]float64{}, map[string]int{}
	spans := in.tr.snapshot()
	t0, t1 := phaseBounds(in.open, in.closed)

	kindOf := map[int64]opKind{}
	for _, r := range []phaseResult{in.open, in.closed} {
		for _, s := range r.samples {
			kindOf[s.req] = s.kind
		}
	}
	byReq := map[int64]*reqSpans{}
	var writeRoutes, walSpans []span
	var snapNs, ledgerSyncNs float64
	for _, s := range spans {
		inWindow := s.Start >= t0 && s.End <= t1
		switch s.Kind {
		case spanOuter, spanAdmitted, spanRoute:
			r := byReq[s.Req]
			if r == nil {
				r = &reqSpans{}
				byReq[s.Req] = r
			}
			switch s.Kind {
			case spanOuter:
				r.outer = s
			case spanAdmitted:
				r.admitted = s
			default:
				r.route = s
				if k, ok := kindOf[s.Req]; ok && k.write() && s.Shard >= 0 {
					writeRoutes = append(writeRoutes, s)
				}
			}
		case spanWALWrite, spanWALSync:
			if inWindow {
				walSpans = append(walSpans, s)
			}
		case spanSnapshot:
			if inWindow {
				snapNs += ns(s)
			}
		case spanLedgerSync:
			if inWindow {
				ledgerSyncNs += ns(s)
			}
		}
	}
	walOf := map[int64][]span{} // request → its attributed WAL spans
	for i, owner := range attribute(writeRoutes, walSpans) {
		if owner >= 0 {
			walOf[owner] = append(walOf[owner], walSpans[i])
		}
	}

	// Open-loop writes: where a write's client time goes, layer by layer.
	type parts struct{ client, http, admission, mux, handler, walWrite, walSync []float64 }
	var wp parts
	var sumC, sumHTTP, sumAdm, sumHandler, sumW, sumS float64
	// Open-loop reads: each route's share of the read client time.
	readRoute := map[opKind]float64{}
	readMs := map[opKind][]float64{}
	var sumCRead float64
	for _, s := range in.open.samples {
		r := byReq[s.req]
		if !served(s) || s.failed || r == nil || !r.complete() {
			continue
		}
		c := float64(s.done - s.sent)
		if !s.kind.write() {
			sumCRead += c
			readRoute[s.kind] += ns(r.route)
			readMs[s.kind] = append(readMs[s.kind], ns(r.route)/1e6)
			continue
		}
		var w [2]float64 // write, fsync
		var children []interval
		for _, ws := range walOf[s.req] {
			children = append(children, ws.iv())
			if ws.Kind == spanWALWrite {
				w[0] += ns(ws)
			} else {
				w[1] += ns(ws)
			}
		}
		httpNs, admNs := c-ns(r.outer), ns(r.outer)-ns(r.admitted)
		handlerNs := float64(selfTime(r.route.iv(), children))
		sumC += c
		sumHTTP += httpNs
		sumAdm += admNs
		sumHandler += handlerNs
		sumW += w[0]
		sumS += w[1]
		wp.client = append(wp.client, c/1e6)
		wp.http = append(wp.http, httpNs/1e6)
		wp.admission = append(wp.admission, admNs/1e6)
		wp.mux = append(wp.mux, (ns(r.admitted)-ns(r.route))/1e6)
		wp.handler = append(wp.handler, handlerNs/1e6)
		wp.walWrite = append(wp.walWrite, w[0]/1e6)
		wp.walSync = append(wp.walSync, w[1]/1e6)
	}
	writes := len(wp.client)
	share := func(name string, part, whole float64, count int) {
		if whole > 0 {
			v[name] = part / whole
		}
		n[name] = count
	}
	share("http.overhead_share", sumHTTP, sumC, writes)
	share("admission.wait_share", sumAdm, sumC, writes)
	share("market.handler_share", sumHandler, sumC, writes)
	share("wal.write_share", sumW, sumC, writes)
	share("wal.fsync_share", sumS, sumC, writes)
	for name, k := range map[string]opKind{
		"market.list_owner_share": opListOwner, "market.list_state_share": opListState,
		"market.get_share": opGet, "kpi.report_share": opKPI, "agg.aggregates_share": opAggregates,
	} {
		share(name, readRoute[k], sumCRead, len(readMs[k]))
	}
	for _, p := range []struct {
		name string
		xs   []float64
	}{
		{"client", wp.client}, {"http", wp.http}, {"admission", wp.admission}, {"obs_mux", wp.mux},
		{"market_handler", wp.handler}, {"wal_write", wp.walWrite}, {"wal_fsync", wp.walSync},
	} {
		if len(p.xs) > 0 {
			res.extra("trace.write."+p.name+"_ms_p50", quantile(sortedCopy(p.xs), 0.5), "ms", len(p.xs))
		}
	}
	for _, k := range []opKind{opListOwner, opListState, opGet, opKPI, opAggregates} {
		if xs := readMs[k]; len(xs) > 0 {
			res.extra("trace.read."+opNames[k]+"_route_ms_p50", quantile(sortedCopy(xs), 0.5), "ms", len(xs))
		}
	}

	// Counters over the measured phases.
	var acked, accepts, ops int
	var allC float64
	for _, r := range []phaseResult{in.open, in.closed} {
		for _, s := range r.samples {
			if !served(s) {
				continue
			}
			ops++
			allC += float64(s.done - s.sent)
			if !s.failed && s.kind.write() {
				acked++
				if s.kind == opAccept {
					accepts++
				}
			}
		}
	}
	d := func(name string, match ...string) float64 { return delta(in.m0, in.m1, name, match...) }
	shed := d("admission_shed_total")
	admitted := d("admission_admitted_total", "class", "read") + d("admission_admitted_total", "class", "write")
	per := func(name string, x float64, base int) {
		if base > 0 {
			v[name] = x / float64(base)
		}
		n[name] = base
	}
	if admitted+shed > 0 {
		v["admission.shed_ratio"] = shed / (admitted + shed)
	}
	n["admission.shed_ratio"] = int(admitted + shed)
	if shards := in.m1.value("market_shards"); shards > 0 {
		v["market.lock_busy_share"] = d("market_shard_lock_hold_seconds_total") / (in.wall.Seconds() * shards)
	}
	n["market.lock_busy_share"] = 1
	if allC > 0 {
		v["market.lock_wait_share"] = d("market_shard_lock_wait_seconds_total") / (allC / 1e9)
	}
	n["market.lock_wait_share"] = ops
	per("wal.fsyncs_per_write", d("wal_fsyncs_total"), acked)
	if appends := d("wal_appends_total"); appends > 0 {
		v["wal.bytes_per_append"] = d("wal_bytes_total") / appends
		n["wal.bytes_per_append"] = int(appends)
	}
	v["wal.snapshots"], n["wal.snapshots"] = d("snapshot_writes_total"), 1
	v["wal.snapshot_share"], n["wal.snapshot_share"] = snapNs/float64(in.wall), 1

	var rounds, members, applyErrs int
	var roundNs float64
	for _, run := range in.s1.History {
		if run.Run > in.s0.Runs {
			rounds++
			members += run.Members
			applyErrs += run.ApplyErrors
			roundNs += run.DurationSeconds * 1e9
		}
	}
	per("sched.members_per_round", float64(members), rounds)
	if members+applyErrs > 0 {
		v["sched.apply_error_ratio"] = float64(applyErrs) / float64(members+applyErrs)
	}
	n["sched.apply_error_ratio"] = members + applyErrs
	v["sched.busy_share"], n["sched.busy_share"] = roundNs/float64(in.wall), rounds
	if roundNs > 0 {
		v["sched.ledger_fsync_share"] = ledgerSyncNs / roundNs
	}
	n["sched.ledger_fsync_share"] = rounds
	per("agg.rebuilds_per_accept", d("agg_rebuilds_total"), accepts)
	per("kpi.events_per_write", d("kpi_events_folded_total"), acked)

	extractionLayers(spans, v, n)
	runtimeLayers(in.mem0, in.mem1, in.wall, ops, v, n)

	overhead(res, in.untracedOpen, in.untracedClosed, in.open, in.closed)
	return layerMetrics(v, n)
}

// overhead records the tracing overhead: capacity and median latency of
// the traced pass against the untraced pass before it, each taken from the
// phase the workload's end-to-end metric comes from.
func overhead(res *result, uLatPhase, uCapPhase, tLatPhase, tCapPhase phaseResult) {
	uCap, uN := capacity(uCapPhase)
	tCap, tN := capacity(tCapPhase)
	uLat, tLat := latencies(uLatPhase.samples, nil), latencies(tLatPhase.samples, nil)
	uP50, tP50 := quantile(sortedCopy(uLat), 0.5), quantile(sortedCopy(tLat), 0.5)
	res.extra("trace.capacity_untraced_ops_s", uCap, "1/s", uN)
	res.extra("trace.capacity_traced_ops_s", tCap, "1/s", tN)
	res.extra("trace.latency_p50_untraced_ms", uP50, "ms", len(uLat))
	res.extra("trace.latency_p50_traced_ms", tP50, "ms", len(tLat))
	res.extra("trace.capacity_ratio", tCap/uCap, "ratio", 1)
	res.extra("trace.latency_p50_ratio", tP50/uP50, "ratio", 1)
}

// phaseBounds is the tracer-time window the measured phases span.
func phaseBounds(rs ...phaseResult) (int64, int64) {
	var lo, hi int64 = -1, 0
	for _, r := range rs {
		for _, s := range r.samples {
			if lo < 0 || s.due < lo {
				lo = s.due
			}
			hi = max(hi, s.done)
		}
	}
	return lo, hi
}

// extractionLayers fills the extraction layers from every recorded
// extraction span: the portfolio's seeding, or the extract workload's
// traced pass and set-up. A workload without extraction reads 0.
func extractionLayers(spans []span, v map[string]float64, n map[string]int) {
	var sum [numSpanKinds]float64
	var count [numSpanKinds]int
	for _, s := range spans {
		sum[s.Kind] += ns(s)
		count[s.Kind]++
	}
	// Shares of the workers' time: workers × the pipeline runs' wall.
	if workerNs := float64(seedJobs) * sum[spanPipeline]; workerNs > 0 {
		v["core.household_share"] = sum[spanHousehold] / workerNs
		v["core.appliance_share"] = sum[spanAppliance] / workerNs
		v["pipeline.sink_share"] = sum[spanSink] / workerNs
		v["pipeline.busy_share"] = (sum[spanHousehold] + sum[spanAppliance] + sum[spanSink]) / workerNs
	}
	n["core.household_share"] = count[spanHousehold]
	n["core.appliance_share"] = count[spanAppliance]
	n["pipeline.sink_share"] = count[spanSink]
	n["pipeline.busy_share"] = count[spanHousehold] + count[spanAppliance]
	if sum[spanSetup] > 0 {
		v["timeseries.readcsv_share"] = sum[spanReadCSV] / sum[spanSetup]
	}
	n["timeseries.readcsv_share"] = count[spanReadCSV]
}

// runtimeLayers fills the Go runtime metrics of this process (which, in a
// traced run, hosts the assembled stack) over the measured phases.
func runtimeLayers(m0, m1 runtime.MemStats, wall time.Duration, ops int, v map[string]float64, n map[string]int) {
	if ops > 0 {
		v["runtime.gc_cycles_per_kop"] = float64(m1.NumGC-m0.NumGC) / (float64(ops) / 1000)
	}
	n["runtime.gc_cycles_per_kop"] = ops
	v["runtime.gc_pause_ms_per_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / wall.Seconds()
	n["runtime.gc_pause_ms_per_s"] = int(m1.NumGC - m0.NumGC)
	v["runtime.heap_inuse_mb"], n["runtime.heap_inuse_mb"] = float64(m1.HeapInuse)/(1<<20), 1
}

// recovery is the traced breakdown of the last journal recovery.
type recovery struct {
	open, read float64 // seconds: OpenJournaled, and its file reads
	n          int     // read calls
}

func recoveryBreakdown(tr *tracer) recovery {
	spans := tr.snapshot()
	var last span
	for _, s := range spans {
		if s.Kind == spanOpenJournal && s.Start >= last.Start {
			last = s
		}
	}
	rec := recovery{open: ns(last) / 1e9}
	for _, s := range spans {
		if s.Kind == spanWALRead && s.Start >= last.Start && s.End <= last.End {
			rec.read += ns(s) / 1e9
			rec.n++
		}
	}
	return rec
}
