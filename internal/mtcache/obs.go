package mtcache

import (
	"sort"

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
//	mtcache_plan_cache_misses_total   statements whose canonical text the plan cache did not hold:
//	                                  fresh optimizations and new texts bound to a known shape's
//	                                  plan (the model the bench/traced.go replay and
//	                                  TestPlanCacheMatchesCanonicalTextModel hold it to)
//	mtcache_reruns_total              runs repeated because a region read locally moved during them
//	mtcache_reruns_remote_total       repeated runs whose region moved again, answered remote
//	trace_sampled_total               queries sampled into the lifecycle ring
//	span_events_total{kind}           link retries, breaker transitions, repl applies
//	tuner_retunes_total{region}       autotuner decisions that changed the interval
//	tuner_held_total{region}          autotuner decisions held by hysteresis
//	tuner_target_interval_ns{region}  autotuner's current target interval
//	audit_reads_checked_total         reads folded through the delivered-guarantee checker
//	audit_reads_ok_total              reads that kept their declared promise
//	audit_violations_total{class}     silent violations (currency, consistency)
//	audit_disclosed_total             broken-but-disclosed serves (degraded, served-stale)
//	audit_unbounded_total             reads with no finite bound to audit
//	audit_unchecked_total             local reads of a region with no registered object
//	audit_events_dropped_total{kind}  audit read ring overwrites (kind="read")
//	audit_excess_staleness_ns         delivered minus declared staleness on violations
//	audit_slack_ns                    declared minus delivered staleness on OK reads
//
// (the guard_*, region_staleness_ns, degraded_reads_total and slo_* ones are
// the region ledger's, listed on obs.RegionLedger; tuner_* register with
// autotuning, audit_* with the auditor, all in this cache's registry.)
type cacheObs struct {
	reg *obs.Registry
	// tracer samples query lifecycles into the recent-query ring and counts
	// span events; ledger folds every guard decision into its region's guard
	// metrics, SLO and workload windows. Both are always non-nil.
	tracer *obs.Tracer
	ledger *obs.RegionLedger

	queries       *obs.Counter
	remoteQueries *obs.Counter
	servedStale   *obs.Counter
	planHits      *obs.Counter
	planMisses    *obs.Counter
	reruns        *obs.Counter
	rerunsRemote  *obs.Counter
}

func newCacheObs(clock vclock.Clock, reg *obs.Registry) *cacheObs {
	return &cacheObs{
		reg:           reg,
		tracer:        obs.NewTracer(reg, obs.DefaultSampleEvery, obs.DefaultRingSize),
		ledger:        obs.NewRegionLedger(reg, clock.Now()),
		queries:       reg.Counter("mtcache_queries_total"),
		remoteQueries: reg.Counter("mtcache_remote_queries_total"),
		servedStale:   reg.Counter("mtcache_served_stale_total"),
		planHits:      reg.Counter("mtcache_plan_cache_hits_total"),
		planMisses:    reg.Counter("mtcache_plan_cache_misses_total"),
		reruns:        reg.Counter("mtcache_reruns_total"),
		rerunsRemote:  reg.Counter("mtcache_reruns_remote_total"),
	}
}

// Obs returns the cache's metrics registry. Every cache has one; all
// session, guard, replication and plan-cache instruments register here.
func (c *Cache) Obs() *obs.Registry { return c.obs.reg }

// Tracer returns the cache's query-lifecycle tracer (sampled ring of recent
// query records plus span-event counters).
func (c *Cache) Tracer() *obs.Tracer { return c.obs.tracer }

// Ledger returns the cache's region ledger: every guard decision's guard
// metrics, per-region currency SLO windows (/slo) and the windowed workload
// profiles the autotuning loop cuts.
func (c *Cache) Ledger() *obs.RegionLedger { return c.obs.ledger }

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

// RefreshMetrics recomputes every region's staleness gauge
// (region_staleness_ns) from the clock and the region's published heartbeat,
// so a metrics snapshot reflects current staleness even between queries, and
// folds the auditor's unchecked reads into the audit_* series.
func (c *Cache) RefreshMetrics() {
	c.aud.Check()
	now := c.clock.Now()
	for _, r := range c.cat.Regions() {
		if ts, ok := c.LastSync(r.ID); ok {
			c.obs.ledger.SetStaleness(r.ID, now.Sub(ts))
		}
	}
}
