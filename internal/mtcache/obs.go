package mtcache

import (
	"sort"
	"strconv"
	"sync"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/vclock"
)

// cacheObs bundles the cache's metric instruments, resolved once at cache
// creation so per-query recording is atomic increments only.
//
// Metric names (see DESIGN.md "Observability"):
//
//	mtcache_queries_total             SELECTs executed through sessions
//	mtcache_remote_queries_total      remote fall-back queries actually run
//	mtcache_served_stale_total        results downgraded by ActionServeStale
//	mtcache_plan_cache_hits_total     plan-cache hits
//	mtcache_plan_cache_misses_total   plan-cache misses (fresh optimizations)
//	guard_local_total{region}         guard decisions that took the local branch
//	guard_remote_total{region}        guard decisions that fell back remote
//	guard_latency_ns                  selector evaluation time (the paper's c_cg)
//	guard_staleness_ns                region staleness observed at decision time
//	region_staleness_ns{region}       current staleness gauge per region
//	degraded_reads_total{region}      local branches served on remote failure
//	guard_block_waits_total           guard re-evaluations performed by blocking sessions
//	trace_sampled_total               queries sampled into the lifecycle ring
//	span_events_total{kind}           link retries, breaker transitions, repl applies
//	slo_within_bound_ratio{region}    fraction of serves within the session bound (ppm)
//	slo_error_budget{region}          remaining error budget in the SLO window (ppm)
//	slo_served_staleness_ns{region}   staleness of guard-approved local serves
//	tuner_retunes_total{region}       autotuner decisions that changed the interval
//	tuner_held_total{region}          autotuner decisions held by hysteresis
//	tuner_target_interval_ns{region}  autotuner's current target interval
//	audit_reads_checked_total         reads folded through the delivered-guarantee checker
//	audit_reads_ok_total              reads that kept their declared promise
//	audit_violations_total{class}     silent violations (currency, consistency)
//	audit_disclosed_total             broken-but-disclosed serves (degraded, served-stale)
//	audit_unbounded_total             reads with no finite bound to audit
//	audit_unchecked_total             reads outside the retained history window
//	audit_events_dropped_total{kind}  audit ring overwrites (commit, read, apply)
//	audit_excess_staleness_ns         delivered minus declared staleness on violations
//	audit_slack_ns                    declared minus delivered staleness on OK reads
//
// (the tuner_* instruments register from tuner.NewLoop when autotuning is
// enabled and the audit_* instruments from audit.New when the auditor is
// installed; they are listed here because they share this cache's registry.)
type cacheObs struct {
	reg    *obs.Registry
	traces *obs.TraceStore
	// tracer samples query lifecycles into the recent-query ring and counts
	// span events; slo folds every guard decision into per-region currency
	// SLO windows; workload aggregates the same decisions into the windowed
	// profiles the autotuner consumes. All are always non-nil on a cache's
	// obs.
	tracer   *obs.Tracer
	slo      *obs.SLOTracker
	workload *obs.WorkloadObserver

	queries       *obs.Counter
	remoteQueries *obs.Counter
	servedStale   *obs.Counter
	planHits      *obs.Counter
	planMisses    *obs.Counter

	guardLocal      *obs.CounterVec
	guardRemote     *obs.CounterVec
	guardLatency    *obs.Histogram
	guardStaleness  *obs.Histogram
	regionStaleness *obs.GaugeVec
	degradedReads   *obs.CounterVec
	blockWaits      *obs.Counter

	// regionLabels caches strconv results so the per-query guard hook does
	// not allocate a label string per decision.
	mu           sync.RWMutex
	regionLabels map[int]string
}

func newCacheObs(clock vclock.Clock, reg *obs.Registry) *cacheObs {
	return &cacheObs{
		reg:             reg,
		traces:          &obs.TraceStore{},
		tracer:          obs.NewTracer(reg, obs.DefaultSampleEvery, obs.DefaultRingSize),
		slo:             obs.NewSLOTracker(reg, obs.DefaultSLOTarget, obs.DefaultSLOWindow),
		workload:        obs.NewWorkloadObserver(clock.Now()),
		queries:         reg.Counter("mtcache_queries_total"),
		remoteQueries:   reg.Counter("mtcache_remote_queries_total"),
		servedStale:     reg.Counter("mtcache_served_stale_total"),
		planHits:        reg.Counter("mtcache_plan_cache_hits_total"),
		planMisses:      reg.Counter("mtcache_plan_cache_misses_total"),
		guardLocal:      reg.CounterVec("guard_local_total", "region"),
		guardRemote:     reg.CounterVec("guard_remote_total", "region"),
		guardLatency:    reg.Histogram("guard_latency_ns"),
		guardStaleness:  reg.Histogram("guard_staleness_ns"),
		regionStaleness: reg.GaugeVec("region_staleness_ns", "region"),
		degradedReads:   reg.CounterVec("degraded_reads_total", "region"),
		blockWaits:      reg.Counter("guard_block_waits_total"),
		regionLabels:    map[int]string{},
	}
}

func (o *cacheObs) regionLabel(id int) string {
	o.mu.RLock()
	l, ok := o.regionLabels[id]
	o.mu.RUnlock()
	if ok {
		return l
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if l, ok := o.regionLabels[id]; ok {
		return l
	}
	l = strconv.Itoa(id)
	o.regionLabels[id] = l
	return l
}

// guardMetrics counts one guard decision: the branch pick per region, the
// selector's cost and the staleness it observed.
func (o *cacheObs) guardMetrics(g obs.GuardEvent) {
	label := o.regionLabel(g.Region)
	if g.Chosen == 0 {
		o.guardLocal.With(label).Inc()
	} else {
		o.guardRemote.With(label).Inc()
	}
	o.guardLatency.ObserveDuration(g.GuardTime)
	if g.StalenessKnown {
		o.guardStaleness.ObserveDuration(g.Staleness)
		o.regionStaleness.With(label).SetDuration(g.Staleness)
	}
}

// onViolation counts one degraded-mode event: local branches served despite a remote guard choice count as degraded
// reads per region, and blocking sessions account their guard waits.
func (o *cacheObs) onViolation(v exec.Violation) {
	switch v.Action {
	case "serve-local":
		o.degradedReads.With(o.regionLabel(v.Region)).Inc()
	case "block":
		o.blockWaits.Add(int64(v.Waits))
	}
}

// Obs returns the cache's metrics registry. Every cache has one; all
// session, guard, replication and plan-cache instruments register here.
func (c *Cache) Obs() *obs.Registry { return c.obs.reg }

// Traces returns the cache's last-trace store (filled by EXPLAIN ANALYZE).
func (c *Cache) Traces() *obs.TraceStore { return c.obs.traces }

// Tracer returns the cache's query-lifecycle tracer (sampled ring of recent
// query records plus span-event counters).
func (c *Cache) Tracer() *obs.Tracer { return c.obs.tracer }

// SLO returns the cache's per-region currency SLO tracker.
func (c *Cache) SLO() *obs.SLOTracker { return c.obs.slo }

// ConfigureSLO replaces the SLO tracker's target and window, resetting its
// accumulated observations (see obs.SLOTracker.Reconfigure). Harness
// scenarios size the window to the run length before traffic flows.
func (c *Cache) ConfigureSLO(target float64, window int) {
	c.obs.slo.Reconfigure(target, window)
}

// Workload returns the cache's workload observer: the per-region windowed
// bound-mix/arrival-rate/staleness profiles fed by every guard decision,
// consumed by the autotuning loop.
func (c *Cache) Workload() *obs.WorkloadObserver { return c.obs.workload }

// RegionStatuses reports one row per currency region for the ops surface:
// the region's replication parameters (the agent's effective cadence, so a
// live retune shows up immediately), its staleness right now (clock minus
// the local heartbeat), whether a heartbeat has ever arrived, and how many
// transactions its agent has applied.
func (c *Cache) RegionStatuses() []obs.RegionStatus {
	now := c.clock.Now()
	regions := c.cat.Regions()
	out := make([]obs.RegionStatus, 0, len(regions))
	for _, r := range regions {
		rs := obs.RegionStatus{
			ID:                  r.ID,
			Name:                r.Name,
			UpdateIntervalNS:    int64(r.UpdateInterval),
			UpdateDelayNS:       int64(r.UpdateDelay),
			HeartbeatIntervalNS: int64(r.HeartbeatInterval),
		}
		if ts, ok := c.LastSync(r.ID); ok {
			rs.Synced = true
			rs.StalenessNS = int64(now.Sub(ts))
		}
		if a := c.Agent(r.ID); a != nil {
			rs.TxnsApplied = a.TransactionsApplied()
			rs.UpdateIntervalNS = int64(a.Interval())
			rs.HeartbeatIntervalNS = int64(a.HeartbeatInterval())
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RefreshStalenessGauges recomputes every region's staleness gauge
// (region_staleness_ns) from the clock and the local heartbeat table, so a
// metrics snapshot reflects current staleness even between queries.
func (c *Cache) RefreshStalenessGauges() {
	now := c.clock.Now()
	for _, r := range c.cat.Regions() {
		if ts, ok := c.LastSync(r.ID); ok {
			c.obs.regionStaleness.With(c.obs.regionLabel(r.ID)).SetDuration(now.Sub(ts))
		}
	}
}
