package core_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
)

// newSystem builds a small loaded system (300 customers, 3000 orders).
func newSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func sortedKeys(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = sqltypes.RowKey(r)
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, a, b []sqltypes.Row) {
	t.Helper()
	ka, kb := sortedKeys(a), sortedKeys(b)
	if len(ka) != len(kb) {
		t.Fatalf("row counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestPointQueryNoCurrencyGoesRemote(t *testing.T) {
	sys := newSystem(t)
	q := tpcd.PointQuery(42, "")
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.UsesLocal {
		t.Fatalf("no-currency query used local plan: %s", res.Plan.Shape)
	}
	if res.RemoteQueries == 0 {
		t.Fatal("expected remote execution")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("rows = %v", res.Rows)
	}
	back, err := sys.QueryBackend(q)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, back.Rows)
}

func TestRelaxedCurrencyUsesLocalView(t *testing.T) {
	sys := newSystem(t)
	// Bound 60s >> max staleness (delay 5 + interval 15): always local.
	q := tpcd.PointQuery(42, "CURRENCY 60 ON (Customer)")
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.UsesLocal || res.Plan.Guards != 1 {
		t.Fatalf("plan = %s (guards=%d)", res.Plan.Shape, res.Plan.Guards)
	}
	if len(res.LocalViews) != 1 {
		t.Fatalf("guard chose remote: %+v (local views %v)", res.Plan.Shape, res.LocalViews)
	}
	if res.RemoteQueries != 0 {
		t.Fatal("local plan still sent remote queries")
	}
	back, _ := sys.QueryBackend(tpcd.PointQuery(42, ""))
	sameRows(t, res.Rows, back.Rows)
}

func TestTightBoundFallsBackRemoteAtRuntime(t *testing.T) {
	sys := newSystem(t)
	// Bound 6s: above min delay 5s (so the local plan is kept) but the
	// region's data right before a propagation is ~20s stale; at the
	// current instant it may or may not qualify. Make it definitely stale:
	// advance to just before the next CR1 propagation (t=44.5s; CR1
	// propagated at t=30s, so its data reflects t=25s → 19.5s stale).
	if err := sys.Run(13500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	q := tpcd.PointQuery(7, "CURRENCY 6 ON (Customer)")
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.UsesLocal {
		t.Fatalf("expected guarded plan, got %s", res.Plan.Shape)
	}
	if len(res.LocalViews) != 0 || res.RemoteQueries == 0 {
		t.Fatalf("guard should have chosen remote; local=%v remotes=%d",
			res.LocalViews, res.RemoteQueries)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestBoundBelowDelayPrunedAtCompileTime(t *testing.T) {
	sys := newSystem(t)
	// Bound 3s < delay 5s: the local view can never qualify; the plan must
	// not contain a guard at all.
	res, err := sys.Query(tpcd.PointQuery(7, "CURRENCY 3 ON (Customer)"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.UsesLocal || res.Plan.Guards != 0 {
		t.Fatalf("plan should be purely remote, got %s", res.Plan.Shape)
	}
}

func TestConsistencyClassForcesRemote(t *testing.T) {
	sys := newSystem(t)
	// One consistency class across both tables: views are in different
	// regions, so no local combination satisfies it.
	q := tpcd.JoinQuery("C.c_custkey = 5", "CURRENCY 60 ON (C, O)")
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.UsesLocal {
		t.Fatalf("consistency class should force remote data, got %s", res.Plan.Shape)
	}
	back, _ := sys.QueryBackend(tpcd.JoinQuery("C.c_custkey = 5", ""))
	sameRows(t, res.Rows, back.Rows)
}

func TestSeparateClassesAllowLocalJoin(t *testing.T) {
	sys := newSystem(t)
	q := tpcd.JoinQuery("C.c_custkey = 5", "CURRENCY 60 ON (C), 60 ON (O)")
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.UsesLocal {
		t.Fatalf("separate classes should allow local views, got %s", res.Plan.Shape)
	}
	back, _ := sys.QueryBackend(tpcd.JoinQuery("C.c_custkey = 5", ""))
	sameRows(t, res.Rows, back.Rows)
}

func TestMixedPlanWhenOneBoundTooTight(t *testing.T) {
	sys := newSystem(t)
	// Customer bound below its delay, Orders bound relaxed: plan 4 shape.
	// The predicate is wide enough that joining locally (saving the
	// shipping of the 10x-wider join result) beats the all-remote plan.
	q := tpcd.JoinQuery("C.c_custkey <= 250", "CURRENCY 3 ON (C), 60 ON (O)")
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.UsesLocal {
		t.Fatalf("expected mixed plan, got %s", res.Plan.Shape)
	}
	if !strings.Contains(res.Plan.Shape, "Remote(Customer)") {
		t.Fatalf("customer access should be remote: %s", res.Plan.Shape)
	}
	back, _ := sys.QueryBackend(tpcd.JoinQuery("C.c_custkey <= 250", ""))
	sameRows(t, res.Rows, back.Rows)
}

func TestUpdatesPropagateThroughReplication(t *testing.T) {
	sys := newSystem(t)
	// Update through the cache (transparent forwarding).
	if _, err := sys.Exec("UPDATE Customer SET c_acctbal = 7777.0 WHERE c_custkey = 10"); err != nil {
		t.Fatal(err)
	}
	// Immediately, a relaxed query may still see the old value locally; the
	// view must converge after delay + interval.
	if err := sys.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(tpcd.PointQuery(10, "CURRENCY 60 ON (Customer)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalViews) != 1 {
		t.Fatalf("expected local answer, got %v", res.Plan.Shape)
	}
	if got := res.Rows[0][2].Float(); got != 7777.0 {
		t.Fatalf("replicated balance = %v", got)
	}
}

func TestGroupByAggregateThroughCache(t *testing.T) {
	sys := newSystem(t)
	q := `SELECT O.o_custkey, COUNT(*) AS cnt, SUM(O.o_totalprice) AS total
		FROM Orders O WHERE O.o_custkey <= 5 GROUP BY O.o_custkey
		ORDER BY O.o_custkey CURRENCY 60 ON (O)`
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i+1) || r[1].Int() != 10 {
			t.Fatalf("group row %d = %v", i, r)
		}
	}
	// Must match the back end's answer.
	back, err := sys.QueryBackend(`SELECT O.o_custkey, COUNT(*) AS cnt, SUM(O.o_totalprice) AS total
		FROM Orders O WHERE O.o_custkey <= 5 GROUP BY O.o_custkey ORDER BY O.o_custkey`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, back.Rows)
}

func TestExistsSubqueryWithCurrency(t *testing.T) {
	sys := newSystem(t)
	// The paper's Q3 shape: customers having at least one expensive order.
	q := `SELECT C.c_custkey, C.c_name FROM Customer C
		WHERE C.c_custkey <= 20 AND EXISTS (
			SELECT 1 FROM Orders O WHERE O.o_custkey = C.c_custkey AND O.o_totalprice > 400000
			CURRENCY 60 ON (O))
		CURRENCY 60 ON (C)`
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sys.QueryBackend(`SELECT C.c_custkey, C.c_name FROM Customer C
		WHERE C.c_custkey <= 20 AND EXISTS (
			SELECT 1 FROM Orders O WHERE O.o_custkey = C.c_custkey AND O.o_totalprice > 400000)`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, back.Rows)
	if len(res.Rows) == 0 {
		t.Fatal("expected at least one qualifying customer")
	}
}

func TestTimelineConsistency(t *testing.T) {
	sys := newSystem(t)
	sess := sys.Cache.NewSession()
	if _, err := sess.Execute("BEGIN TIMEORDERED"); err != nil {
		t.Fatal(err)
	}
	// First query goes remote (tight default): floor rises to "now".
	if _, err := sess.Execute(tpcd.PointQuery(3, "")); err != nil {
		t.Fatal(err)
	}
	floor := sess.Floor()
	if floor.IsZero() {
		t.Fatal("floor not raised by remote read")
	}
	// Second query with a huge bound would normally use the local view, but
	// the region last synced before the floor, so the guard must go remote.
	res, err := sess.Execute(tpcd.PointQuery(3, "CURRENCY 3600 ON (Customer)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalViews) != 0 {
		t.Fatal("timeline consistency violated: used older local data")
	}
	// After replication catches up past the floor, local reads return.
	if err := sys.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Execute(tpcd.PointQuery(3, "CURRENCY 3600 ON (Customer)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalViews) != 1 {
		t.Fatalf("expected local read after catch-up, got %s", res.Plan.Shape)
	}
	if _, err := sess.Execute("END TIMEORDERED"); err != nil {
		t.Fatal(err)
	}
	if sess.TimeOrdered() {
		t.Fatal("bracket not closed")
	}
}

func TestServeStaleViolationAction(t *testing.T) {
	sys := newSystem(t)
	inj := fault.New(1)
	sys.InjectFaults(inj)
	inj.SetPartitioned(true)

	// Default action: error.
	if _, err := sys.Query(tpcd.PointQuery(4, "")); err == nil {
		t.Fatal("expected error with link down")
	}
	// ServeStale: answer from the local view regardless of currency.
	sess := sys.Cache.NewSession()
	sess.Action = 1 // mtcache.ActionServeStale
	res, err := sess.Query(tpcd.PointQuery(4, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !res.ServedStale {
		t.Fatal("result not flagged stale")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDerivedTableFlattening(t *testing.T) {
	sys := newSystem(t)
	// The paper's Q2 shape: a derived table joined with another table, and
	// a currency clause naming the derived alias.
	q := `SELECT T.c_name, O.o_totalprice
		FROM (SELECT c_custkey, c_name FROM Customer CURRENCY 60 ON (Customer)) T
		JOIN Orders O ON T.c_custkey = O.o_custkey
		WHERE T.c_custkey = 9
		CURRENCY 60 ON (O)`
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 orders", len(res.Rows))
	}
	back, err := sys.QueryBackend(`SELECT C.c_name, O.o_totalprice
		FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey WHERE C.c_custkey = 9`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, back.Rows)
}

// TestByGroupingColumnsAccepted pins the extension behavior for E3/E4-style
// clauses (the paper's prototype rejected them): grouping columns parse,
// normalize, and are satisfied at table granularity — replication applies
// whole transactions, so per-group consistency is subsumed by whole-class
// consistency.
func TestByGroupingColumnsAccepted(t *testing.T) {
	sys := newSystem(t)
	q := `SELECT C.c_name, O.o_totalprice
		FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey
		WHERE C.c_custkey = 3
		CURRENCY 60 ON (C), 60 ON (O) BY O.o_custkey`
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.UsesLocal {
		t.Fatalf("BY-grouped query should still use local views: %s", res.Plan.Shape)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// E4 shape: one class with grouping relaxation. The class spans
	// regions, but grouping does not relax *cross-table* region membership
	// in our model (empty-BY merge semantics), so it still forces remote.
	q = `SELECT C.c_name, O.o_totalprice
		FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey
		WHERE C.c_custkey = 3
		CURRENCY 60 ON (C, O) BY C.c_custkey`
	res, err = sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.UsesLocal {
		t.Fatalf("single class across regions must stay remote: %s", res.Plan.Shape)
	}
}
