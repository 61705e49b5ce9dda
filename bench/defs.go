package main

// The metric definitions. BENCHMARK.json lists the same names, units and
// directions (TestBenchmarkJSON keeps the two in step); README.md gives
// the full definitions.

// endToEnd are the gated metrics a user of the system sees, reported by
// every untraced run on every workload. Capacity and latency are reported
// beside them but not gated: on the 2-core box they drift with the load
// other tenants put on the host by more than any bound BENCHMARK.json may
// set (README.md, Stability).
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},      // median of the run's set-ups: exec (or input loading) to the first ready answer
	{"peak_rss_mb", "MB", "lower"}, // VmHWM of the serving process after a fixed amount of work
}

// The end-to-end metrics every untraced run reports but BENCHMARK.json
// does not gate; the layer map below may name them.
const (
	capacityMetric = "capacity_ops_s" // acknowledged operations per second, closed loop, two connections
	latencyMetric  = "latency_p50_ms" // operation latency from due, median
)

// layerDef is one per-layer metric and the end-to-end metric it should
// move, on the workload that exercises its layer.
type layerDef struct {
	name, unit, better string
	moves, on          string
}

// perLayer are the metrics a -trace run reports, one layer each, named
// after the repository's packages. A layer a workload bypasses reads 0
// there, so layer times are shares (unitless ratios) rather than times
// that would read a constant 0; only the Go runtime, which every
// workload's process runs, reports a time (pause per second).
var perLayer = []layerDef{
	{"http.overhead_share", "ratio", "lower", "latency_p50_ms", "ingest-memory"},
	{"admission.wait_share", "ratio", "lower", "latency_p50_ms", "ingest-always"},
	{"admission.shed_ratio", "ratio", "lower", "capacity_ops_s", "ingest-always"},
	{"market.handler_share", "ratio", "lower", "capacity_ops_s", "ingest-memory"},
	{"market.lock_busy_share", "ratio", "lower", "capacity_ops_s", "ingest-always"},
	{"market.lock_wait_share", "ratio", "lower", "latency_p50_ms", "ingest-always"},
	{"market.list_owner_share", "ratio", "lower", "latency_p50_ms", "portfolio"},
	{"market.list_state_share", "ratio", "lower", "latency_p50_ms", "portfolio"},
	{"market.get_share", "ratio", "lower", "latency_p50_ms", "portfolio"},
	{"wal.fsyncs_per_write", "count", "lower", "capacity_ops_s", "ingest-always"},
	{"wal.bytes_per_append", "B", "lower", "latency_p50_ms", "ingest-always"},
	{"wal.write_share", "ratio", "lower", "latency_p50_ms", "ingest-always"},
	{"wal.fsync_share", "ratio", "lower", "capacity_ops_s", "ingest-always"},
	{"wal.snapshots", "count", "lower", "capacity_ops_s", "ingest-always"},
	{"wal.snapshot_share", "ratio", "lower", "capacity_ops_s", "ingest-always"},
	{"sched.members_per_round", "count", "higher", "capacity_ops_s", "ingest-always"},
	{"sched.apply_error_ratio", "ratio", "lower", "capacity_ops_s", "ingest-always"},
	{"sched.busy_share", "ratio", "lower", "capacity_ops_s", "ingest-memory"},
	{"sched.ledger_fsync_share", "ratio", "lower", "capacity_ops_s", "ingest-always"},
	{"agg.rebuilds_per_accept", "count", "lower", "capacity_ops_s", "ingest-memory"},
	{"agg.aggregates_share", "ratio", "lower", "latency_p50_ms", "portfolio"},
	{"kpi.report_share", "ratio", "lower", "latency_p50_ms", "portfolio"},
	{"kpi.events_per_write", "count", "lower", "capacity_ops_s", "portfolio"},
	{"pipeline.sink_share", "ratio", "lower", "setup_s", "portfolio"},
	{"pipeline.busy_share", "ratio", "higher", "capacity_ops_s", "extract"},
	{"core.household_share", "ratio", "lower", "capacity_ops_s", "extract"},
	{"core.appliance_share", "ratio", "lower", "capacity_ops_s", "extract"},
	{"timeseries.readcsv_share", "ratio", "lower", "setup_s", "portfolio"},
	{"runtime.gc_cycles_per_kop", "count", "lower", "capacity_ops_s", "ingest-memory"},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", "latency_p50_ms", "ingest-memory"},
	{"runtime.heap_inuse_mb", "MB", "lower", "peak_rss_mb", "portfolio"},
}

// layerMetrics renders computed per-layer values in perLayer order; a
// layer the workload bypassed reads 0.
func layerMetrics(values map[string]float64, samples map[string]int) []metric {
	out := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		out = append(out, metric{Name: d.name, Value: values[d.name], Unit: d.unit, N: samples[d.name]})
	}
	return out
}
