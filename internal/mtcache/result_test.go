package mtcache_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"relaxedcc/internal/fault"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/tpcd"
)

// resultRow is what a statement's QueryResult says about where its answer
// came from: the guards that served locally, the remote queries run, how far
// AsOf lies behind the clock the statement started at, and the degraded-mode
// warnings.
type resultRow struct {
	localViews    []string
	remoteQueries int
	behind        time.Duration // statement start minus AsOf
	degraded      bool
	violations    []string // action/region/waits of each warning
}

// TestResultReportsItsSources pins, per kind of statement, what QueryResult
// reports about the sources of its answer: a guarded local point read, the
// two-guard Q5, the point read sent remote by its guard, the same read
// degraded to the local view under a partition (ActionServeLocal) and blocked
// until replication catches up (ActionBlock), and a statement with no
// currency clause, planned remote with no guard. A two-guard plan lists its
// local views in the order its guards decided: an inner guard decides, and
// publishes, before the guard around it. A local source is as of the
// heartbeat its guard judged.
func TestResultReportsItsSources(t *testing.T) {
	sys, err := harness.NewSystem(harness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(7)
	sys.InjectFaults(inj)
	sys.EnableResilience()

	point := tpcd.PointQuery(17, "CURRENCY 60 ON (Customer)")
	var q5 string
	for _, c := range harness.PlanChoiceCases() {
		if c.Name == "Q5" {
			q5 = c.SQL
		}
	}
	const (
		guard = "Guard(cust_prj|Remote(Customer))"
		join  = "GuardJoin(NLJ(Guard(cust_prj|Remote(Customer)), orders_prj)|HashJoin(Guard(cust_prj|Remote(Customer)), Remote(Orders)))"
	)
	for _, st := range []struct {
		name   string
		sql    string
		action mtcache.ViolationAction
		before func()
		want   resultRow
	}{
		{"local point", point, mtcache.ActionError, nil,
			resultRow{localViews: []string{guard}, behind: 6 * time.Second}},
		{"two guards", q5, mtcache.ActionError, nil,
			resultRow{localViews: []string{guard, join}, behind: 6 * time.Second}},
		// Two minutes pass with replication standing still: the guard now
		// rejects the local branch.
		{"remote", point, mtcache.ActionError, func() { sys.Clock.Advance(2 * time.Minute) },
			resultRow{remoteQueries: 1}},
		{"degraded", point, mtcache.ActionServeLocal, func() {
			sys.Clock.Advance(2 * time.Minute)
			inj.SetPartitioned(true)
			// The region's agent applies a heartbeat six seconds newer while
			// the link backs off before the fall-back; the answer is as of
			// the one the guard judged, the staleness its decision reports.
		}, resultRow{localViews: []string{guard}, behind: 4*time.Minute + 6*time.Second, degraded: true,
			violations: []string{"serve-local/1/0"}}},
		{"blocked", point, mtcache.ActionBlock, func() {
			inj.SetPartitioned(false)
			sys.Clock.Advance(2 * time.Minute)
			// The wait lets replication run: the answer is fresher than the
			// clock the statement started at.
		}, resultRow{localViews: []string{guard}, behind: -10 * time.Second, violations: []string{"block/1/1"}}},
		{"no currency clause", tpcd.PointQuery(17, ""), mtcache.ActionError, nil,
			resultRow{remoteQueries: 1}},
	} {
		if st.before != nil {
			st.before()
		}
		sess := sys.Cache.NewSession()
		sess.Action = st.action
		start := sys.Clock.Now()
		res, err := sess.Query(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got := resultRow{
			localViews:    res.LocalViews,
			remoteQueries: res.RemoteQueries,
			behind:        start.Sub(res.AsOf),
			degraded:      res.Degraded,
		}
		for _, v := range res.Violations {
			got.violations = append(got.violations, fmt.Sprintf("%s/%d/%d", v.Action, v.Region, v.Waits))
		}
		if !reflect.DeepEqual(got, st.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", st.name, got, st.want)
		}
	}
}
