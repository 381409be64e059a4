package mtcache

import (
	"testing"
	"time"
)

// idleTrees reports how many idle trees the entry filed under the raw text
// holds, -1 when the text is unknown.
func idleTrees(c *Cache, sql string) int {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	e := c.byText[sql]
	if e == nil {
		return -1
	}
	return e.tmpl.Idle()
}

// TestTreeCheckInRules: a tree returns to its entry only after a clean,
// uninstrumented run of a plan that is still the cached one.
func TestTreeCheckInRules(t *testing.T) {
	c, _, clock := newPair(t)
	addRegionAndView(t, c)
	c.SetLastSync(1, clock.Now())
	q := "SELECT v FROM t WHERE id = 1 CURRENCY 10 ON (t)"
	sess := c.NewSession()

	// The miss plans, runs the plan's own tree and checks it in; hits run
	// that one tree again.
	for i := 0; i < 3; i++ {
		res, err := sess.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || len(res.LocalViews) != 1 || res.Plan.Root != nil {
			t.Fatalf("run %d: %d rows, local views %v, exposed tree %v", i, len(res.Rows), res.LocalViews, res.Plan.Root != nil)
		}
		if n := idleTrees(c, q); n != 1 {
			t.Fatalf("run %d: %d idle trees, want the one tree back", i, n)
		}
	}

	// EXPLAIN ANALYZE instruments its tree in place: it builds its own and
	// leaves the idle one alone, through either entry point.
	if res, err := sess.ExplainAnalyze(q); err != nil || res.Trace == nil {
		t.Fatalf("explain analyze: %v, trace %v", err, res)
	}
	if res, err := sess.Execute("EXPLAIN ANALYZE " + q); err != nil || res.Trace == nil {
		t.Fatalf("execute explain analyze: %v, trace %v", err, res)
	}
	if n := idleTrees(c, q); n != 1 {
		t.Fatalf("%d idle trees after EXPLAIN ANALYZE, want 1", n)
	}
	if idleTrees(c, "EXPLAIN ANALYZE "+q) != -1 {
		t.Fatal("an EXPLAIN text was filed as if it were its SELECT")
	}
	// The plain statement is still a hit, and still not an EXPLAIN.
	if res, err := sess.Execute(q); err != nil || res.Trace != nil || len(res.Rows) != 1 {
		t.Fatalf("execute after explain: %v", err)
	}

	// A run that fails drops its tree: age the region past the bound with
	// the link down, so the guard goes remote and the fetch errors.
	clock.Advance(time.Minute)
	inj := partition(c)
	if _, err := sess.Query(q); err == nil {
		t.Fatal("remote branch with the link down did not fail")
	}
	if n := idleTrees(c, q); n != 0 {
		t.Fatalf("%d idle trees after a failed run, want 0", n)
	}
	inj.SetPartitioned(false)
	if _, err := sess.Query(q); err != nil {
		t.Fatal(err)
	}
	if n := idleTrees(c, q); n != 1 {
		t.Fatalf("%d idle trees after the next clean run, want a newly built one", n)
	}

	// A tree checked out when its plan is invalidated has nowhere to go.
	e, root := c.lookupText(q, true)
	if e == nil || root == nil {
		t.Fatal("no idle tree to check out")
	}
	c.InvalidatePlans()
	c.checkIn(e, root)
	if e.tmpl.Idle() != 0 || idleTrees(c, q) != -1 {
		t.Fatal("a tree of an invalidated plan was kept")
	}
}

// TestTimelineAndServeStalePlanFromTheSharedStatement: sessions that cannot
// run the cached plan still skip the parser for a known text, plan from the
// entry's statement with their own options, and leave the entry as it was.
func TestTimelineAndServeStalePlanFromTheSharedStatement(t *testing.T) {
	c, _, clock := newPair(t)
	addRegionAndView(t, c)
	c.SetLastSync(1, clock.Now())
	q := "SELECT v FROM t WHERE id = 1 CURRENCY 10 ON (t)"
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	e, _ := c.lookupText(q, false)
	plan := e.tmpl.Plan
	if e.sel.Load() != nil {
		t.Fatal("an entry only shared sessions ran keeps a parse")
	}

	// A timeline session with a floor plans per query: a miss every time.
	tl := c.NewSession()
	if _, err := tl.Execute("BEGIN TIMEORDERED"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		misses := c.obs.planMisses.Value()
		res, err := tl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("timeline run %d: %d rows", i, len(res.Rows))
		}
		// The first query of the bracket has no floor yet and is a hit.
		if wantMiss := i > 0; (c.obs.planMisses.Value() != misses) != wantMiss {
			t.Fatalf("timeline run %d: miss = %v, want %v", i, !wantMiss, wantMiss)
		}
	}
	if tl.Floor().IsZero() {
		t.Fatal("timeline session observed no snapshot")
	}
	// The re-plans parsed the canonical text once, and the entry keeps it.
	sel := e.sel.Load()
	if sel == nil {
		t.Fatal("the timeline session's re-plans left no parse on the entry")
	}

	// Serve-stale re-plans the failed query's statement guardless.
	clock.Advance(time.Minute)
	inj := partition(c)
	stale := c.NewSession()
	stale.Action = ActionServeStale
	res, err := stale.Query(q)
	if err != nil || !res.ServedStale || len(res.Rows) != 1 {
		t.Fatalf("serve-stale: %v, %+v", err, res)
	}
	inj.SetPartitioned(false)

	if e2, _ := c.lookupText(q, false); e2 != e || e.tmpl.Plan != plan || e.sel.Load() != sel {
		t.Fatal("a per-session plan replaced the cached entry, or its parse")
	}
}
