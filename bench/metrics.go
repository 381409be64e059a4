package main

// metricSpec names one reported metric. The two lists below are the
// benchmark's contract and are repeated in BENCHMARK.json (bench_test.go
// checks they agree).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer metrics
	// have none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the cache sees, reported by the timed
// rounds (-trace 0) on every workload. All are non-zero on all four.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"throughput_qps", "1/s", higher, 0.25},
	{"query_p50_us", "us", lower, 0.25},
	{"query_p99_us", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.01},
	{"local_serve_ratio", "ratio", higher, 0.01},
	{"peak_rss_mb", "MB", lower, 0.10},
}

// zeroable are end-to-end metrics that read zero on a workload without
// writes or without remote answers, which the driver's contract does not
// allow in BENCHMARK.json. The timed runs measure them all the same, on a
// line of their own before the result line; result.json keeps them and
// -compare judges them wherever the first file measured one. The traced run
// reports the same three among the per-layer metrics.
var zeroable = []metricSpec{
	{"write_p50_us", "us", lower, 0.25},
	{"write_p99_us", "us", lower, 0.25},
	{"remote_kb_per_op", "KB", lower, 0.01},
}

// compared is what -compare judges: every end-to-end metric.
var compared = append(append([]metricSpec(nil), endToEnd...), zeroable...)

// perLayer are the metrics of single layers, reported by the traced run
// (-trace 1). README.md says which end-to-end metric each should move.
var perLayer = []metricSpec{
	// The local point-read path: these add up to query_p50_us on point_hot.
	{Name: "sqlparser.parse_us", Unit: "us", Better: lower},
	{Name: "sqlparser.print_us", Unit: "us", Better: lower},
	{Name: "opt.build_us", Unit: "us", Better: lower},
	{Name: "exec.run_us", Unit: "us", Better: lower},
	{Name: "exec.guard_us", Unit: "us", Better: lower},
	{Name: "storage.get_ns", Unit: "ns", Better: lower},
	{Name: "mtcache.self_us", Unit: "us", Better: lower},
	// Plan cache and optimizer: the p99 of mix_zipf.
	{Name: "mtcache.plan_cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "mtcache.plan_cache_misses", Unit: "count", Better: lower},
	{Name: "opt.plan_us", Unit: "us", Better: lower},
	{Name: "opt.plan_allocs", Unit: "count", Better: lower},
	{Name: "cc.normalize_us", Unit: "us", Better: lower},
	// The remote hop.
	{Name: "remote.query_us", Unit: "us", Better: lower},
	{Name: "backend.query_us", Unit: "us", Better: lower},
	{Name: "remote.link_self_us", Unit: "us", Better: lower},
	{Name: "remote.queries_per_op", Unit: "count", Better: lower},
	{Name: "remote.rows_per_op", Unit: "count", Better: lower},
	{Name: "remote_kb_per_op", Unit: "KB", Better: lower},
	// The executor on analytic.
	{Name: "exec.rows_per_s", Unit: "1/s", Better: higher},
	{Name: "exec.tmpl.scan_cust.p50_us", Unit: "us", Better: lower},
	{Name: "exec.tmpl.join_local.p50_us", Unit: "us", Better: lower},
	{Name: "exec.tmpl.scan_orders.p50_us", Unit: "us", Better: lower},
	{Name: "exec.tmpl.agg_nation.p50_us", Unit: "us", Better: lower},
	{Name: "exec.tmpl.agg_top.p50_us", Unit: "us", Better: lower},
	{Name: "storage.scan_rows_per_s", Unit: "1/s", Better: higher},
	// Guard outcomes: must repeat exactly.
	{Name: "exec.guard_local_ratio", Unit: "ratio", Better: higher},
	{Name: "exec.guards_per_query", Unit: "count", Better: lower},
	// The write path (read_write only; zero elsewhere).
	{Name: "write_p50_us", Unit: "us", Better: lower},
	{Name: "write_p99_us", Unit: "us", Better: lower},
	{Name: "sqlparser.parse_dml_us", Unit: "us", Better: lower},
	{Name: "backend.dml_us", Unit: "us", Better: lower},
	{Name: "txn.commits", Unit: "count", Better: higher},
	// Replication ticks (every sys.RunTo).
	{Name: "repl.tick_us", Unit: "us", Better: lower},
	{Name: "repl.tick_max_us", Unit: "us", Better: lower},
	{Name: "repl.tick_share", Unit: "ratio", Better: lower},
	{Name: "repl.txns_applied", Unit: "count", Better: higher},
	{Name: "repl.rows_applied", Unit: "count", Better: higher},
	{Name: "repl.apply_us_per_txn", Unit: "us", Better: lower},
	// The Go runtime under the workload.
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_total_us", Unit: "us", Better: lower},
	{Name: "runtime.gc_pause_max_us", Unit: "us", Better: lower},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: lower},
	{Name: "runtime.heap_inuse_mb", Unit: "MB", Better: lower},
	{Name: "bench.query_max_us", Unit: "us", Better: lower},
	// Observability cost; the auditor is off in timed rounds.
	{Name: "audit.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "audit.reads_checked", Unit: "count", Better: higher},
	{Name: "audit.violations", Unit: "count", Better: lower},
	{Name: "obs.trace_sampled", Unit: "count", Better: higher},
	{Name: "mtcache.scale_2c", Unit: "ratio", Better: higher},
	// Driver health: a reader must be able to tell a slow host or a
	// perturbing tracer from a slow commit.
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "bench.unexplained_share", Unit: "ratio", Better: lower},
	{Name: "bench.drift_ratio", Unit: "ratio", Better: lower},
	{Name: "bench.canary_ms", Unit: "ms", Better: lower},
	// The host factor of the reference rounds and their headline numbers as
	// the wall clock read them (reported value = wall-clock value scaled by
	// the factor; see host.go).
	{Name: "bench.host_factor", Unit: "ratio", Better: lower},
	{Name: "bench.wall_qps", Unit: "1/s", Better: higher},
	{Name: "bench.wall_p50_us", Unit: "us", Better: lower},
	{Name: "bench.wall_p99_us", Unit: "us", Better: lower},
	{Name: "bench.timer_ns", Unit: "ns", Better: lower},
}

// measured is one reported value, in the shape the result line uses.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// fill builds the metrics map of a result line from values, requiring one
// value per spec so a forgotten metric fails loudly instead of reading zero.
func fill(specs []metricSpec, values map[string]float64) map[string]measured {
	out := make(map[string]measured, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			panic("bench: metric " + s.Name + " was not measured")
		}
		out[s.Name] = measured{Value: v, Unit: s.Unit}
	}
	if len(values) != len(specs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				panic("bench: metric " + name + " is not in the contract")
			}
		}
	}
	return out
}
