package mtcache_test

import (
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/tpcd"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// TestQueryAllocationBudget pins the allocations of plan-cache hits: a
// guarded local point read, the same read when its guard sends it to the
// back end, the benchmark's point join, its ~1,000-row range read
// (scan_cust) and its two aggregates. A hit runs a tree that ran before, so what is counted is
// what one execution allocates — the result, the session's bookkeeping, the
// guard decision — plus, on the remote path, the back end scanning the
// shipped text and running its template's tree. BENCHMARK.json bounds
// allocs_per_op at 1%: this catches a regression in `go test`. Each ceiling
// is the count plus two. The counts, with two or more CPUs (on one, the five
// analytic rows run their scans inline and take 5 or 6 fewer): point 6, join
// 9, point/new text 12, join/new text 18, scan_cust 29, scan_orders 16,
// join_local 48, agg_nation 12, agg_top 16, point-remote 10,
// point-remote/new text 13. The point read's six are the QueryResult, its
// exec.Result, the row list, the projected batch the row is cut from,
// LocalViews and the guard decision; every row took five more while each query built its EvalContext
// and the closures that delivered guard decisions and violations. With parse,
// print-back and a tree build on every hit the first four took 91, 140, 204
// and 136.
//
// The "new text" rows are statement-cache misses on a known shape: every run
// is a text the session has not seen (another key), which costs one lexer
// pass, the spliced canonical text, the statement's entry and its parameters
// on top of a hit — not the parse, print and optimize (some 230 allocations
// for the point read, 1,400 for the join) they took before shapes.
func TestQueryAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Cache.NewSession()
	fixed := func(sql string) func(int64) string { return func(int64) string { return sql } }
	point := func(key int64) string { return tpcd.PointQuery(key, "CURRENCY 60 ON (Customer)") }
	for _, tc := range []struct {
		name    string
		sql     func(key int64) string
		rows    int
		local   bool
		ceiling float64
	}{
		{"point", fixed(point(17)), 1, true, 8},
		{"join", fixed(tpcd.Query(tpcd.KindJoin, 17, time.Minute)), 10, true, 11},
		{"point/new text", point, 1, true, 14},
		{"join/new text", func(key int64) string { return tpcd.Query(tpcd.KindJoin, key, time.Minute) }, 10, true, 20},
		// The scan and join templates of the end-to-end benchmark's analytic
		// workload: what allocates is the result — one arena per columnar
		// batch at the result boundary, the row list growing once per batch —
		// not the rows read or joined (join_local took 18,328).
		{"scan_cust", fixed(tpcd.RangeQuery(0, 1000, "CURRENCY 3600 ON (Customer)")), 1353, true, 31},
		{"scan_orders", fixed("SELECT o_custkey, o_orderkey, o_totalprice FROM Orders WHERE o_totalprice > 490000 CURRENCY 3600 ON (Orders)"), 3000, true, 18},
		{"join_local", fixed(tpcd.JoinQuery("C.c_acctbal >= 9000", "CURRENCY 3600 ON (C), 3600 ON (O)")), 14030, true, 50},
		// The aggregate templates, answered from the view: 15,000 input rows
		// each and not one allocation per row or per group — what is left is
		// the result, the scan's workers and the sort. The groups go into
		// lanes the aggregate keeps (one row arena more per query while they
		// went into a fresh one). Shipped to the back end and aggregated row
		// by row they took 15,497 and 33,229.
		{"agg_nation", fixed("SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM Customer GROUP BY c_nationkey CURRENCY 3600 ON (Customer)"), 25, true, 14},
		{"agg_top", fixed("SELECT TOP 10 o_custkey, SUM(o_totalprice) AS total FROM Orders WHERE o_custkey <= 1500 GROUP BY o_custkey ORDER BY total DESC CURRENCY 3600 ON (Orders)"), 10, true, 18},
		// An hour passes with replication standing still: the point read's
		// guard now picks the remote branch (106 before the back end answered
		// shipped statements from templates).
		{"point-remote", fixed(point(17)), 1, false, 12},
		{"point-remote/new text", point, 1, false, 15},
	} {
		if !tc.local && tc.name == "point-remote" {
			sys.Clock.Advance(time.Hour)
		}
		key := int64(1000)
		run := func() *mtcache.QueryResult {
			key++
			res, err := s.Query(tc.sql(key))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return res
		}
		res := run() // plans and caches the statement, or at least its shape
		if len(res.Rows) != tc.rows || (len(res.LocalViews) > 0) != tc.local || (res.RemoteQueries == 0) != tc.local {
			t.Fatalf("%s: %d rows, local views %v, %d remote queries; want %d rows served locally: %v",
				tc.name, len(res.Rows), res.LocalViews, res.RemoteQueries, tc.rows, tc.local)
		}
		got := testing.AllocsPerRun(50, func() { run() })
		t.Logf("%s: %.0f allocs per query", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per query, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}
