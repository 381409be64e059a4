package mtcache_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
)

func loadedSystem(t *testing.T, scale float64) *core.System {
	t.Helper()
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: scale, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// planCacheSize is the bound the frozen bench/traced.go mirrors; the
// reference model below is that mirror.
const planCacheSize = 512

// TestPlanCacheMatchesCanonicalTextModel replays a seeded stream through a
// session and through the reference model of the plan cache — a map keyed by
// canonical text, 512 entries, dropped wholesale when full or invalidated —
// and requires the same hit or miss at every op. The raw-text index, the
// shared statement and the idle trees must not show in that sequence: the
// benchmark's traced run counts a production hit its model misses as an op
// it could not mirror.
func TestPlanCacheMatchesCanonicalTextModel(t *testing.T) {
	sys := loadedSystem(t, 0.01)
	customers := tpcd.Config{ScaleFactor: 0.01}.Customers()
	if customers <= 2*planCacheSize {
		t.Fatalf("%d customers cannot overflow a %d-entry cache", customers, planCacheSize)
	}
	reg := sys.Cache.Obs()
	hits, misses := reg.Counter("mtcache_plan_cache_hits_total"), reg.Counter("mtcache_plan_cache_misses_total")
	sess := sys.Cache.NewSession()
	keys := tpcd.NewKeySampler(7, customers, 1.05, 1)
	rng := rand.New(rand.NewSource(7))
	model := map[string]bool{}
	distinct := map[string]bool{}
	var modelHits, evictions int

	// variants spell one statement several ways: same canonical text, so the
	// same cache entry, reached through different raw texts — more raw texts
	// than the index holds.
	variants := []func(string) string{
		func(s string) string { return s },
		func(s string) string { return strings.Replace(s, "SELECT", "select", 1) },
		func(s string) string { return strings.Replace(s, " FROM ", "   from\t", 1) },
		func(s string) string { return "  " + strings.Replace(s, " WHERE ", "\nWHERE ", 1) + " " },
	}
	for op := 0; op < 12000; op++ {
		if rng.Intn(3000) == 0 {
			sys.Cache.InvalidatePlans()
			model = map[string]bool{}
			continue
		}
		sql := tpcd.PointQuery(keys.Next(), "CURRENCY 60 ON (Customer)")
		if rng.Intn(10) == 0 {
			sql = tpcd.CustomerOrdersQuery(keys.Next(), "CURRENCY 60 ON (C), 60 ON (O)")
		}
		sql = variants[rng.Intn(len(variants))](sql)
		distinct[sql] = true
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		key := sqlparser.SelectSQL(sel)
		wantHit := model[key]
		if wantHit {
			modelHits++
		} else {
			if len(model) >= planCacheSize {
				model = map[string]bool{}
				evictions++
			}
			model[key] = true
		}

		h, m := hits.Value(), misses.Value()
		run := sess.Query
		switch rng.Intn(8) {
		case 0:
			run = sess.Execute
		case 1:
			run = sess.ExplainAnalyze
		}
		if _, err := run(sql); err != nil {
			t.Fatalf("op %d %q: %v", op, sql, err)
		}
		gotHit := hits.Value() == h+1 && misses.Value() == m
		gotMiss := hits.Value() == h && misses.Value() == m+1
		if gotHit != wantHit || gotMiss == wantHit {
			t.Fatalf("op %d %q: hit %v miss %v, model says hit %v", op, sql, gotHit, gotMiss, wantHit)
		}
	}
	if len(distinct) <= planCacheSize || evictions == 0 || modelHits == 0 {
		t.Fatalf("stream too tame: %d distinct texts, %d evictions, %d hits", len(distinct), evictions, modelHits)
	}
}

// benchTemplates are the seven statement shapes of the end-to-end benchmark
// (bench/workloads.go): the guarded point read, the point join and the five
// analytic templates.
func benchTemplates(customers int) []string {
	const hour = "CURRENCY 3600 ON "
	return []string{
		tpcd.Query(tpcd.KindPoint, 17, 15*time.Second),
		tpcd.Query(tpcd.KindJoin, 17, 15*time.Second),
		tpcd.RangeQuery(0, 1000, hour+"(Customer)"),
		tpcd.JoinQuery("C.c_acctbal >= 9000", hour+"(C), 3600 ON (O)"),
		"SELECT o_custkey, o_orderkey, o_totalprice FROM Orders WHERE o_totalprice > 490000 " + hour + "(Orders)",
		"SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM Customer GROUP BY c_nationkey " + hour + "(Customer)",
		fmt.Sprintf("SELECT TOP 10 o_custkey, SUM(o_totalprice) AS total FROM Orders WHERE o_custkey <= %d GROUP BY o_custkey ORDER BY total DESC %s(Orders)", customers/10, hour),
	}
}

// rowStrings renders rows for comparison as a multiset: plans differ in the
// order they produce unordered results in.
func rowStrings(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReusedTreesAnswerLikeFreshOnes runs every statement of the plan-choice
// and guard experiments and the benchmark's templates several times through
// one session — so from the second run on through a tree that ran before —
// while the clock moves every guard local → remote → local between runs.
// Each answer must be the back end's and each run's guard picks those of a
// tree built for that run alone; rows kept from the first run must not be
// touched by later runs.
func TestReusedTreesAnswerLikeFreshOnes(t *testing.T) {
	sys := loadedSystem(t, 0.01)
	var stmts []string
	for _, c := range harness.PlanChoiceCases() {
		stmts = append(stmts, c.SQL)
	}
	for _, g := range harness.GuardQueries() {
		stmts = append(stmts, g.Plain, g.Fresh, g.Stale)
	}
	stmts = append(stmts, benchTemplates(tpcd.Config{ScaleFactor: 0.01}.Customers())...)

	// The two aggregate templates end the list; their guard sits at the root,
	// above the operators that keep state between runs.
	aggregates := stmts[len(stmts)-2:]

	sess := sys.Cache.NewSession()
	hits := sys.Cache.Obs().Counter("mtcache_plan_cache_hits_total")
	guarded, flipped := 0, 0
	for _, sql := range stmts {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		back, err := sys.QueryBackend(sql)
		if err != nil {
			t.Fatalf("%q at the back end: %v", sql, err)
		}
		want := rowStrings(back.Rows)

		var first *mtcache.QueryResult
		var firstCopy []string
		var picks [4][]string
		for run := 0; run < 4; run++ {
			switch run {
			case 1:
				// Time passes with replication standing still: every region
				// is now staler than any bound.
				sys.Clock.Advance(2 * time.Hour)
			case 2:
				// Replication catches up.
				if err := sys.Run(31 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
			h := hits.Value()
			qr, err := sess.Query(sql)
			if err != nil {
				t.Fatalf("%q run %d: %v", sql, run, err)
			}
			if run > 0 && hits.Value() != h+1 {
				t.Fatalf("%q run %d was not a plan-cache hit", sql, run)
			}
			if got := rowStrings(qr.Rows); !sameStrings(got, want) {
				t.Fatalf("%q run %d: %d rows, the back end has %d:\n got %v\nwant %v", sql, run, len(got), len(want), got, want)
			}

			// The same statement through a tree nobody ran before.
			plan, _, err := sys.Cache.Plan(sel, opt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var fresh []string
			ctx := &exec.EvalContext{Now: sys.Clock.Now(), Clock: sys.Clock, OnGuard: func(d exec.GuardDecision) {
				if d.Chosen == 0 {
					fresh = append(fresh, d.Label)
				}
			}}
			res, err := exec.Run(plan.Root, ctx, 0)
			if err != nil {
				t.Fatalf("%q run %d on a fresh tree: %v", sql, run, err)
			}
			if got := rowStrings(res.Rows); !sameStrings(got, want) {
				t.Fatalf("%q run %d: fresh tree disagrees with the back end", sql, run)
			}
			sort.Strings(fresh)
			picks[run] = append([]string(nil), qr.LocalViews...)
			sort.Strings(picks[run])
			if !sameStrings(picks[run], fresh) {
				t.Fatalf("%q run %d: reused tree served %v locally, a fresh tree %v", sql, run, picks[run], fresh)
			}

			if run == 0 {
				first, firstCopy = qr, rowStrings(qr.Rows)
			}
		}
		if !sameStrings(rowStrings(first.Rows), firstCopy) {
			t.Fatalf("%q: rows of the first result changed when its tree ran again", sql)
		}
		if first.Plan.Guards > 0 {
			guarded++
			if len(picks[1]) != 0 {
				t.Fatalf("%q: guards stayed local %v on regions two hours stale", sql, picks[1])
			}
			if !sameStrings(picks[0], picks[2]) || !sameStrings(picks[2], picks[3]) {
				t.Fatalf("%q: local picks %v, then %v and %v once replication caught up", sql, picks[0], picks[2], picks[3])
			}
			if len(picks[0]) > 0 {
				flipped++
			}
		}
		if slices.Contains(aggregates, sql) && (first.Plan.Guards != 1 || len(picks[0]) != 1 || !strings.HasPrefix(picks[0][0], "Guard(View(")) {
			t.Fatalf("%q: an aggregate template under a loose bound planned %s and served %v locally", sql, first.Plan, picks[0])
		}
	}
	if guarded < 12 || flipped < 12 {
		t.Fatalf("only %d guarded statements, %d of them flipped local → remote → local", guarded, flipped)
	}
}

// TestSessionsShareStatementsUnderRace: four sessions hammer one hot point
// read and one join while another goroutine creates views and invalidates
// plans; a timeline session and a serve-stale session plan from the same
// cached statements. Run under -race; every answer is checked.
func TestSessionsShareStatementsUnderRace(t *testing.T) {
	sys := loadedSystem(t, 0.005)
	point := tpcd.Query(tpcd.KindPoint, 17, time.Hour)
	join := tpcd.Query(tpcd.KindJoin, 17, time.Hour)
	wantRows := map[string][]string{}
	for _, sql := range []string{point, join} {
		back, err := sys.QueryBackend(sql)
		if err != nil {
			t.Fatal(err)
		}
		wantRows[sql] = rowStrings(back.Rows)
	}
	check := func(sql string, qr *mtcache.QueryResult, err error) {
		if err != nil {
			t.Errorf("%q: %v", sql, err)
		} else if got := rowStrings(qr.Rows); !sameStrings(got, wantRows[sql]) {
			t.Errorf("%q: got %v, want %v", sql, got, wantRows[sql])
		}
	}

	const rounds = 300
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := sys.Cache.NewSession()
			for i := 0; i < rounds; i++ {
				sql := point
				if (i+w)%3 == 0 {
					sql = join
				}
				qr, err := sess.Query(sql)
				check(sql, qr, err)
				if i%50 == 0 {
					qr, err = sess.ExplainAnalyze(sql)
					check(sql, qr, err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // timeline session: plans every query afresh once it has a floor
		defer wg.Done()
		sess := sys.Cache.NewSession()
		if _, err := sess.Execute("BEGIN TIMEORDERED"); err != nil {
			t.Error(err)
		}
		for i := 0; i < rounds/3; i++ {
			sql := []string{point, join}[i%2]
			qr, err := sess.Execute(sql)
			check(sql, qr, err)
		}
	}()
	wg.Add(1)
	go func() { // serve-stale session: same statements, its own violation action
		defer wg.Done()
		sess := sys.Cache.NewSession()
		sess.Action = mtcache.ActionServeStale
		for i := 0; i < rounds; i++ {
			sql := []string{point, join}[i%2]
			qr, err := sess.Query(sql)
			check(sql, qr, err)
		}
	}()
	wg.Add(1)
	go func() { // the catalog changes underneath: plans are dropped mid-flight
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if i%5 == 0 {
				view := &catalog.View{
					Name: fmt.Sprintf("cust_race_%d", i), BaseTable: "Customer",
					Columns: []string{"c_custkey", "c_name", "c_acctbal"}, RegionID: 1,
				}
				if err := sys.Cache.CreateView(view); err != nil {
					t.Error(err)
				}
			} else {
				sys.Cache.InvalidatePlans()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
}

// TestAggregateTemplatesServeLocallyBitForBit: with the view inside its
// bound both aggregate templates of the benchmark plan with the guard at
// the root and are answered at the cache; twenty executions at the cache,
// and twenty at the back end, return the same rows to the last bit (both
// aggregate per morsel inside the scan's workers and merge in morsel
// order); cache and back end agree up to the order their morsels add the
// floats up in; with the clock past the bound the fall-back ships no more
// rows than the answer has.
func TestAggregateTemplatesServeLocallyBitForBit(t *testing.T) {
	sys := loadedSystem(t, 0.1)
	sess := sys.Cache.NewSession()
	templates := benchTemplates(tpcd.Config{ScaleFactor: 0.1}.Customers())
	for _, sql := range templates[len(templates)-2:] {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := sys.Cache.Plan(sel, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, atRoot := plan.Root.(*exec.SwitchUnion); !atRoot || plan.Guards != 1 || !strings.HasPrefix(plan.Shape, "Guard(View(") || !strings.HasSuffix(plan.Shape, "|Remote)") {
			t.Fatalf("%q planned %s (root %T)", sql, plan, plan.Root)
		}
		var cache, back []string
		for run := 0; run < 20; run++ {
			qr, err := sess.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if qr.RemoteQueries != 0 || len(qr.LocalViews) != 1 {
				t.Fatalf("%q run %d: %d remote queries, local views %v", sql, run, qr.RemoteQueries, qr.LocalViews)
			}
			br, err := sys.QueryBackend(sql)
			if err != nil {
				t.Fatal(err)
			}
			// Value.String prints floats with the digits that round-trip.
			c, b := rowStrings(qr.Rows), rowStrings(br.Rows)
			if run == 0 {
				cache, back = c, b
				for i := range qr.Rows {
					qr.Rows[i], br.Rows[i] = roundFloats(qr.Rows[i]), roundFloats(br.Rows[i])
				}
				if got, want := rowStrings(qr.Rows), rowStrings(br.Rows); !sameStrings(got, want) {
					t.Fatalf("%q: the cache answered %v, the back end %v", sql, got, want)
				}
			}
			if !sameStrings(c, cache) || !sameStrings(b, back) {
				t.Fatalf("%q: run %d differs from run 0 (cache same: %v, back end same: %v)", sql, run, sameStrings(c, cache), sameStrings(b, back))
			}
		}
		sys.Clock.Advance(2 * time.Hour) // past the bound, replication standing still
		before := sys.Cache.Link().Stats()
		qr, err := sess.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		after := sys.Cache.Link().Stats()
		if qr.RemoteQueries != 1 || after.Queries-before.Queries != 1 || after.Rows-before.Rows > int64(len(qr.Rows)) {
			t.Fatalf("%q past its bound: %d remote queries shipped %d rows for an answer of %d", sql, after.Queries-before.Queries, after.Rows-before.Rows, len(qr.Rows))
		}
		if err := sys.Run(31 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// roundFloats keeps eleven significant digits of every float in the row.
func roundFloats(r sqltypes.Row) sqltypes.Row {
	out := r.Clone()
	for i, v := range out {
		if v.Kind() == sqltypes.KindFloat {
			f, _ := strconv.ParseFloat(strconv.FormatFloat(v.Float(), 'g', 11, 64), 64)
			out[i] = sqltypes.NewFloat(f)
		}
	}
	return out
}
