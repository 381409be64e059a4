// Package good registers metrics the approved way; metricnames must report
// nothing here.
package good

type Registry struct{}

func (r *Registry) Counter(name string) *int             { return new(int) }
func (r *Registry) CounterVec(name, label string) *int   { return new(int) }
func (r *Registry) GaugeVec(name, label string) *int     { return new(int) }
func (r *Registry) Histogram(name string) *int           { return new(int) }
func (r *Registry) HistogramVec(name, label string) *int { return new(int) }

const hitPrefix = "cache_"

func register(r *Registry) {
	r.Counter("cache_hits_total")
	r.Counter(hitPrefix + "misses_total")
	r.GaugeVec("cache_bytes", "shard")
	// The shapes the lifecycle tracer and the region ledger register.
	r.Counter("trace_sampled_total")
	r.CounterVec("span_events_total", "kind")
	r.GaugeVec("slo_error_budget", "region")
	r.HistogramVec("slo_served_staleness_ns", "region")
	// The shapes the autotuning loop registers: counters carry _total, the
	// target interval is a gauge.
	r.CounterVec("tuner_retunes_total", "region")
	r.CounterVec("tuner_held_total", "region")
	r.GaugeVec("tuner_target_interval_ns", "region")
	// The shapes the delivered-guarantee auditor registers: classification
	// counters with labels, ns-suffixed slack/excess histograms.
	r.Counter("audit_reads_checked_total")
	r.CounterVec("audit_violations_total", "class")
	r.CounterVec("audit_events_dropped_total", "kind")
	r.Histogram("audit_excess_staleness_ns")
	r.Histogram("audit_slack_ns")
}
