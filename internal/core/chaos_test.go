package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/sqltypes"
)

// chaosSystem builds the standard fault-tolerance fixture: regionSystem with
// the injector wired in, run one full propagation cycle so the region has
// synchronized.
func chaosSystem(t *testing.T) (*System, *fault.Injector) {
	t.Helper()
	sys := regionSystem(t)
	inj := fault.New(7)
	sys.InjectFaults(inj)
	if err := sys.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}
	return sys, inj
}

// regionSystem is a plain system with one table, one cached view in a region
// with a 10s propagation interval, 2s delay and 1s heartbeat, and one row.
func regionSystem(t *testing.T) *System {
	t.Helper()
	sys := NewSystem()
	sys.MustExec("CREATE TABLE T (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)")
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R",
		UpdateInterval:    10 * time.Second,
		UpdateDelay:       2 * time.Second,
		HeartbeatInterval: 1 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateView(&catalog.View{
		Name: "t_prj", BaseTable: "T", Columns: []string{"id", "v"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Backend.LoadRows("T", []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	sys.Analyze()
	return sys
}

// remoteQuery forces the guard to the remote branch: a 1ms currency bound
// is always tighter than the region's ≥2s replication staleness.
const remoteQuery = "SELECT v FROM T WHERE id = 1 CURRENCY 1 MS ON (T)"

// TestChaosBreakerTripsAndHalfOpens proves the breaker lifecycle against a
// partition: consecutive failures trip it open, fail-fast queries do not
// reach the link, and after the heartbeat-cadence cooldown a half-open
// probe closes it once the partition heals.
func TestChaosBreakerTripsAndHalfOpens(t *testing.T) {
	sys, inj := chaosSystem(t)
	link := sys.Cache.Link()
	inj.SetPartitioned(true)

	// 3 attempts per query, breaker threshold 5 — the second failed query's
	// second attempt is the fifth consecutive failure and trips the breaker.
	for i := 0; i < 2; i++ {
		if _, err := sys.Query(remoteQuery); err == nil {
			t.Fatalf("query %d succeeded under partition", i)
		}
	}
	if got := link.BreakerState(); got != remote.BreakerOpen {
		t.Fatalf("breaker state after partition failures = %v, want open", got)
	}
	if link.Stats().BreakerTrips == 0 {
		t.Fatal("breaker recorded no trips")
	}

	// Open breaker: the next query fails fast with ErrBreakerOpen and the
	// attempt never reaches the injector.
	denials := inj.Stats().PartitionDenials
	_, err := sys.Query(remoteQuery)
	if !errors.Is(err, remote.ErrBreakerOpen) {
		t.Fatalf("open-breaker query error = %v, want ErrBreakerOpen", err)
	}
	if got := inj.Stats().PartitionDenials; got != denials {
		t.Fatalf("open breaker still sent %d call(s) to the link", got-denials)
	}

	// The cooldown is the heartbeat cadence (1s): advancing past it lets one
	// half-open probe through; with the partition still up it re-opens.
	if err := sys.Run(1100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(remoteQuery); err == nil {
		t.Fatal("half-open probe succeeded under partition")
	}
	if got := link.BreakerState(); got != remote.BreakerOpen {
		t.Fatalf("breaker state after failed probe = %v, want open", got)
	}

	// Heal, wait another cooldown: the probe succeeds and closes the breaker.
	inj.SetPartitioned(false)
	if err := sys.Run(1100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(remoteQuery)
	if err != nil {
		t.Fatalf("query after heal: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("healed query returned %d rows", len(res.Rows))
	}
	if got := link.BreakerState(); got != remote.BreakerClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", got)
	}

	snap := sys.Cache.Obs().Snapshot()
	if snap.Counters["remote_breaker_trips_total"] == 0 {
		t.Error("remote_breaker_trips_total not exported")
	}
	if got := snap.Gauges["remote_breaker_state"]; got != int64(remote.BreakerClosed) {
		t.Errorf("remote_breaker_state gauge = %d, want closed (%d)", got, int64(remote.BreakerClosed))
	}
}

// TestResilienceCooldownFollowsSlowestHeartbeat: each region added to the
// cache paces its link's breaker, so with one region beating every second
// and one every two a tripped breaker lets its half-open probe through after
// two seconds, not one.
func TestResilienceCooldownFollowsSlowestHeartbeat(t *testing.T) {
	sys := NewSystem()
	sys.MustExec("CREATE TABLE T (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)")
	for i, hb := range []time.Duration{time.Second, 2 * time.Second} {
		if err := sys.AddRegion(&catalog.Region{
			ID: i + 1, Name: fmt.Sprintf("R%d", i+1),
			UpdateInterval: 10 * time.Second, HeartbeatInterval: hb,
		}); err != nil {
			t.Fatal(err)
		}
	}
	inj := fault.New(7)
	sys.InjectFaults(inj)
	inj.SetPartitioned(true)
	link := sys.Cache.Link()
	for link.BreakerState() != remote.BreakerOpen {
		if _, err := link.Query("SELECT v FROM T"); !errors.Is(err, fault.ErrPartition) {
			t.Fatalf("query under partition: %v", err)
		}
	}
	tripped := sys.Clock.Now()
	inj.SetPartitioned(false)
	if err := sys.RunTo(tripped.Add(2*time.Second - time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Query("SELECT v FROM T"); !errors.Is(err, remote.ErrBreakerOpen) {
		t.Fatalf("breaker half-opened before the slowest heartbeat cadence (2s): %v", err)
	}
	if err := sys.RunTo(tripped.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Query("SELECT v FROM T"); err != nil {
		t.Fatalf("breaker still open one slowest heartbeat cadence (2s) after tripping: %v", err)
	}
}

// guardedQuery keeps a SwitchUnion in the plan: a 5s bound is inside the
// region's staleness oscillation ([2s, 12s] over the 10s cycle), so the
// optimizer must leave the decision to the runtime guard. driftPastBound
// positions the clock where the guard rejects the local branch.
const guardedQuery = "SELECT v FROM T WHERE id = 1 CURRENCY 5000 MS ON (T)"

// driftPastBound advances the system until region staleness exceeds bound.
func driftPastBound(t *testing.T, sys *System, bound time.Duration) {
	t.Helper()
	for i := 0; sys.staleness(t) <= bound; i++ {
		if i > 50 {
			t.Fatalf("staleness never exceeded %s", bound)
		}
		if err := sys.Run(1 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosServeLocalUnderPartition proves graceful degradation: with
// ActionServeLocal a partitioned remote branch falls back to the guarded
// local view, the result carries an explicit staleness-violation warning,
// and the degraded read is visible in metrics and EXPLAIN ANALYZE.
func TestChaosServeLocalUnderPartition(t *testing.T) {
	sys, inj := chaosSystem(t)
	driftPastBound(t, sys, 5*time.Second)
	inj.SetPartitioned(true)

	sess := sys.Cache.NewSession()
	sess.Action = mtcache.ActionServeLocal
	res, err := sess.Query(guardedQuery)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("degraded rows = %v, want the local view's row", res.Rows)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(res.Violations))
	}
	v := res.Violations[0]
	if !v.Degraded || v.Chosen != 0 || v.Region != 1 {
		t.Errorf("violation = %+v, want a degraded local serve on region 1", v)
	}
	if v.Err == nil || !remote.IsUnavailable(v.Err) {
		t.Errorf("violation error %v is not an unavailability", v.Err)
	}
	if !v.StalenessKnown || v.Staleness <= 0 {
		t.Errorf("violation staleness unknown: %+v", v)
	}

	snap := sys.Cache.Obs().Snapshot()
	if got := snap.Counters[`degraded_reads_total{region="1"}`]; got != 1 {
		t.Errorf("degraded_reads_total = %d, want 1", got)
	}

	tr, err := sess.ExplainAnalyze(guardedQuery)
	if err != nil {
		t.Fatalf("explain analyze: %v", err)
	}
	if tr.Trace == nil || !strings.Contains(tr.Trace.String(), "DEGRADED") {
		t.Errorf("trace does not flag the degraded guard:\n%s", tr.Trace)
	}
}

// TestChaosFailFastWithoutDegradation pins the default violation action:
// without a serve-local policy a partitioned remote branch fails the query
// (fail fast), it does not silently serve stale data.
func TestChaosFailFastWithoutDegradation(t *testing.T) {
	sys, inj := chaosSystem(t)
	inj.SetPartitioned(true)
	if _, err := sys.Query(remoteQuery); err == nil || !remote.IsUnavailable(err) {
		t.Fatalf("default action error = %v, want an unavailability failure", err)
	}
}

// TestChaosAgentStallRestartRecovers proves the watchdog loop: a wedged
// agent lets staleness grow past the stall threshold, the watchdog restarts
// it (clearing the soft stall), and the region's staleness gauge recovers
// to the healthy propagation bound.
func TestChaosAgentStallRestartRecovers(t *testing.T) {
	sys, inj := chaosSystem(t)
	if len(sys.Watchdogs) != 1 {
		t.Fatalf("%d watchdogs, want region 1's", len(sys.Watchdogs))
	}
	wd := sys.Watchdogs[0]

	healthy := func() time.Duration {
		ts, ok := sys.Cache.LastSync(1)
		if !ok {
			t.Fatal("region never synchronized")
		}
		return sys.Clock.Now().Sub(ts)
	}
	if s := healthy(); s > 13*time.Second {
		t.Fatalf("pre-stall staleness %s already unhealthy", s)
	}

	inj.StallAgent(1, true)
	// Two update intervals of stall: wake-ups swallowed, staleness grows,
	// but the 3-interval threshold has not fired yet.
	if err := sys.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := wd.Restarts(); got != 0 {
		t.Fatalf("watchdog restarted after %s of stall (restarts=%d), threshold is 30s", 25*time.Second, got)
	}
	stalled := healthy()
	if stalled < 20*time.Second {
		t.Fatalf("staleness %s did not grow during stall", stalled)
	}

	// Crossing the third missed interval fires the watchdog: restart, soft
	// stall cleared, immediate catch-up step.
	if err := sys.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := wd.Restarts(); got == 0 {
		t.Fatal("watchdog never restarted the stalled agent")
	}
	if inj.AgentStalled(1) {
		t.Fatal("soft stall survived the restart")
	}
	// One more propagation cycle: the gauge is back inside the healthy
	// bound (interval + delay + heartbeat slack).
	if err := sys.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	if recovered := healthy(); recovered > 13*time.Second {
		t.Fatalf("staleness %s did not recover after restart", recovered)
	}

	sys.Cache.RefreshMetrics()
	snap := sys.Cache.Obs().Snapshot()
	if got := snap.Counters[`repl_agent_restarts_total{region="1"}`]; got == 0 {
		t.Error("repl_agent_restarts_total not exported")
	}
	if lag := snap.Gauges[`repl_agent_lag_ns{region="1"}`]; time.Duration(lag) > 30*time.Second {
		t.Errorf("repl_agent_lag_ns still %s after recovery", time.Duration(lag))
	}
	if st := snap.Gauges[`region_staleness_ns{region="1"}`]; time.Duration(st) > 13*time.Second {
		t.Errorf("region_staleness_ns %s after recovery", time.Duration(st))
	}
}

// TestChaosBlockActionWaitsForReplication proves ActionBlock: a query whose
// guard initially fails blocks while replication catches up (its waits run
// the coordinator) and then answers locally.
func TestChaosBlockActionWaitsForReplication(t *testing.T) {
	sys, _ := chaosSystem(t)

	// Position the clock just after a propagation so staleness is near its
	// minimum, then let it drift past the bound.
	if err := sys.Run(9 * time.Second); err != nil {
		t.Fatal(err)
	}

	sess := sys.Cache.NewSession()
	sess.Action = mtcache.ActionBlock
	// Drift to a point where staleness exceeds the 5s bound: the guard
	// rejects the local branch, and instead of going remote the session
	// blocks one update interval for the next propagation.
	driftPastBound(t, sys, 5*time.Second)
	before := sys.Clock.Now()
	res, err := sess.Query(guardedQuery)
	if err != nil {
		t.Fatalf("blocking query failed: %v", err)
	}
	if len(res.LocalViews) == 0 {
		t.Fatal("blocking query did not end on the local branch")
	}
	if len(res.Violations) != 1 || res.Violations[0].BlockWaits == 0 || res.Violations[0].Degraded {
		t.Fatalf("violations = %+v, want one decision with block waits", res.Violations)
	}
	if !sys.Clock.Now().After(before) {
		t.Error("blocking query did not consume virtual time")
	}

	snap := sys.Cache.Obs().Snapshot()
	if got := snap.Counters["guard_block_waits_total"]; got == 0 {
		t.Error("guard_block_waits_total not exported")
	}
}

// staleness reads the region's current staleness (test helper).
func (s *System) staleness(t *testing.T) time.Duration {
	t.Helper()
	ts, ok := s.Cache.LastSync(1)
	if !ok {
		t.Fatal("region never synchronized")
	}
	return s.Clock.Now().Sub(ts)
}
