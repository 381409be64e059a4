package mtcache_test

import (
	"math"
	"runtime"
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
// what one execution allocates — the result, plus, on the remote path, the
// back end's reply; the session's bookkeeping and the guard decisions
// allocate nothing. Every row counts at GOMAXPROCS=2 (allocsPerRun), so the
// analytic rows' scans run at two workers, the exchange included.
// BENCHMARK.json bounds allocs_per_op at 1%: this catches a regression in
// `go test`. Each ceiling is the count plus two. The counts: point 1, join
// 3, point/new text 3, join/new text 5, scan_cust 7, scan_orders 8,
// join_local 21, agg_nation 4, agg_top 3, point-remote 2, point-remote/new
// text 4 (scan_cust and scan_orders read one fewer in some runs). While
// they were counted by testing.AllocsPerRun, which runs at GOMAXPROCS=1 and
// so at one worker, the five analytic rows read 10, 11, 24, 9 and 13;
// agg_top took three more while Sort sorted with sort.Slice, whose reflect
// swapper, boxed slice and closure were an allocation each. The point read's one is the QueryResult, which holds its
// exec.Result, room for two local views and the storage its one row of
// three values is materialized into; the join's ten rows take their row list
// and value arena on top. Shipped, the point read adds the back end's reply,
// which holds the run's context, parameters and the row: the link ships the
// skeleton and values the remote leaf scanned from its text's pieces when
// the plan was built, and no text (one more allocation while the leaf spliced
// a text and the back end scanned it again). The
// point read took three while the row list and the value arena were
// allocations of their own, eight shipped while the back end allocated
// its context, parameters, result, row list and arena apart; six while the
// exec.Result and LocalViews were allocations of their own and each guard
// decision was copied to the heap for a walk of the tree after the run (a
// two-guard join took five more); every row took five more while each query
// built its EvalContext and the closures that delivered guard decisions and
// violations. With parse, print-back and a tree build on every hit the
// first four took 91, 140, 204 and 136.
//
// The "new text" rows are statement-cache misses on a known shape: every run
// is a text the session has not seen (another key; the texts are made before
// counting), which costs one lexer pass, the spliced canonical text and the
// statement's entry, its literals inside it, on top of a hit — not the
// parse, print and optimize (some 230 allocations for the point read, 1,400
// for the join) they took before shapes. While the entry's literals were a
// copy of their own, and the point read's row list and arena too, they
// took 6 (point), 6 (join) and 11 (shipped).
func TestQueryAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	s := sys.Cache.NewSession()
	const runs = 50
	key := int64(1000)
	fixed := func(sql string) func(int64) string { return func(int64) string { return sql } }
	point := func(key int64) string { return tpcd.PointQuery(key, "CURRENCY 60 ON (Customer)") }
	for _, tc := range []struct {
		name    string
		sql     func(key int64) string
		rows    int
		local   bool
		ceiling float64
	}{
		{"point", fixed(point(17)), 1, true, 3},
		{"join", fixed(tpcd.Query(tpcd.KindJoin, 17, time.Minute)), 10, true, 5},
		{"point/new text", point, 1, true, 5},
		{"join/new text", func(key int64) string { return tpcd.Query(tpcd.KindJoin, key, time.Minute) }, 10, true, 7},
		// The scan and join templates of the end-to-end benchmark's analytic
		// workload: what allocates is the result — one arena per columnar
		// batch at the result boundary, the row list growing once per batch —
		// not the rows read or joined (join_local took 18,328).
		{"scan_cust", fixed(tpcd.RangeQuery(0, 1000, "CURRENCY 3600 ON (Customer)")), 1353, true, 9},
		{"scan_orders", fixed("SELECT o_custkey, o_orderkey, o_totalprice FROM Orders WHERE o_totalprice > 490000 CURRENCY 3600 ON (Orders)"), 3000, true, 10},
		{"join_local", fixed(tpcd.JoinQuery("C.c_acctbal >= 9000", "CURRENCY 3600 ON (C), 3600 ON (O)")), 14030, true, 23},
		// The aggregate templates, answered from the view: 15,000 input rows
		// each and not one allocation per row or per group — what is left is
		// the result, the scan's workers and the sort. The groups go into
		// lanes the aggregate keeps (one row arena more per query while they
		// went into a fresh one). Shipped to the back end and aggregated row
		// by row they took 15,497 and 33,229.
		{"agg_nation", fixed("SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM Customer GROUP BY c_nationkey CURRENCY 3600 ON (Customer)"), 25, true, 6},
		{"agg_top", fixed("SELECT TOP 10 o_custkey, SUM(o_totalprice) AS total FROM Orders WHERE o_custkey <= 1500 GROUP BY o_custkey ORDER BY total DESC CURRENCY 3600 ON (Orders)"), 10, true, 5},
		// An hour passes with replication standing still: the point read's
		// guard now picks the remote branch (106 before the back end answered
		// shipped statements from templates).
		{"point-remote", fixed(point(17)), 1, false, 4},
		{"point-remote/new text", point, 1, false, 6},
	} {
		if !tc.local && tc.name == "point-remote" {
			sys.Clock.Advance(time.Hour)
		}
		// The texts are made before they are counted, from one key sequence
		// for every row: each text of a "new text" row is new to the session.
		texts := make([]string, 1+warmup+3*runs)
		for i := range texts {
			key++
			texts[i] = tc.sql(key)
		}
		run := func() *mtcache.QueryResult {
			res, err := s.Query(texts[0])
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			texts = texts[1:]
			return res
		}
		res := run() // plans and caches the statement, or at least its shape
		if len(res.Rows) != tc.rows || (len(res.LocalViews) > 0) != tc.local || (res.RemoteQueries == 0) != tc.local {
			t.Fatalf("%s: %d rows, local views %v, %d remote queries; want %d rows served locally: %v",
				tc.name, len(res.Rows), res.LocalViews, res.RemoteQueries, tc.rows, tc.local)
		}
		got := allocsPerRun(runs, func() { run() })
		t.Logf("%s: %.0f allocs per query", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per query, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// TestAuditedPointReadAllocatesOne: every cache audits, and a guarded local
// point read still allocates what TestQueryAllocationBudget's point row
// allows: recording its guard decision for the auditor copies it into the
// read ring, and the fold that checks it reuses its buffers. Every one of the
// reads is checked, and none breaks its promise. (It took 4 while the
// auditor was a mode: a fresh ring slot per event, and the inline check's
// outcome and local-serve slices.)
func TestAuditedPointReadAllocatesOne(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	s := sys.Cache.NewSession()
	sql := tpcd.PointQuery(17, "CURRENCY 60 ON (Customer)")
	reads := 0
	run := func() {
		res, err := s.Query(sql)
		if err != nil || len(res.LocalViews) != 1 {
			t.Fatalf("point read: %v, local views %v", err, res)
		}
		reads++
	}
	run()
	sys.Audit().Summary() // the fold's buffers grow once
	const runs = 50
	got := allocsPerRun(runs, run)
	t.Logf("audited point read: %.0f allocs per query", got)
	if got > 3 {
		t.Errorf("audited point read: %.0f allocs per query, ceiling 3", got)
	}
	if a := sys.Audit().Summary(); a.ReadsChecked != int64(reads) || a.OK != a.ReadsChecked || a.ViolationsTotal != 0 {
		t.Errorf("%d reads, ledger %+v", reads, a.Tally)
	}
}

// warmup is how many calls allocsPerRun makes before it counts.
const warmup = 10

// allocsPerRun is testing.AllocsPerRun at the current GOMAXPROCS, which
// AllocsPerRun sets to 1 (and a parallel scan with it to one worker): the
// mallocs of every goroutine over runs calls of f, divided by runs and
// rounded down, after warmup calls. An exchange batch grows its vectors the
// first time a helper fills it, which on a busy host can be any run, so it
// counts three rounds and returns the fewest.
func allocsPerRun(runs int, f func()) float64 {
	for range warmup {
		f()
	}
	fewest := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return float64(fewest)
}
