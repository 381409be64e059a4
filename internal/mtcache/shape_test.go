package mtcache_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
)

// variations returns texts of the statement's shape family: its canonical
// text with every literal replaced, eight ways — other values of the kind,
// a key no row has, a FLOAT that used to print in exponent form, a negative
// (a folded minus: another skeleton), and the other numeric kind (another
// skeleton again). TOP counts and currency bounds stay.
func variations(t *testing.T, text string) []string {
	t.Helper()
	sel, err := sqlparser.ParseSelect(text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	_, vals, ok := sqlparser.Scan(text, nil, nil)
	if !ok {
		t.Fatalf("%q does not scan", text)
	}
	sel.Slots.Bind(vals)
	pieces := sqlparser.SelectPieces(sel)
	out := []string{text}
	for k := 0; k < 8; k++ {
		vs := append([]sqltypes.Value(nil), vals...)
		for i, v := range vs {
			switch v.Kind() {
			case sqltypes.KindInt:
				n := v.Int()
				vs[i] = []sqltypes.Value{
					sqltypes.NewInt(n), sqltypes.NewInt(n + 1), sqltypes.NewInt(2*n + 3), sqltypes.NewInt(1),
					sqltypes.NewInt(4242), sqltypes.NewInt(99999999), sqltypes.NewInt(-n - 1), sqltypes.NewFloat(float64(n) + 0.5),
				}[k]
			case sqltypes.KindFloat:
				f := v.Float()
				vs[i] = []sqltypes.Value{
					sqltypes.NewFloat(f), sqltypes.NewFloat(f + 1.5), sqltypes.NewFloat(f / 2), sqltypes.NewFloat(0.25),
					sqltypes.NewFloat(1234.5), sqltypes.NewFloat(10000000.5), sqltypes.NewFloat(-f - 0.5), sqltypes.NewInt(int64(f)),
				}[k]
			case sqltypes.KindString:
				vs[i] = sqltypes.NewString([]string{v.Str(), v.Str() + "x", "", "it's", "BUILDING", "zz", "A", "0"}[k])
			}
		}
		if v := pieces.Splice(vs); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// remoteTexts collects the SQL of every Remote operator under op.
func remoteTexts(op exec.Operator, out []string) []string {
	if r, ok := op.(*exec.Remote); ok {
		out = append(out, r.SQL)
	}
	exec.VisitChildren(op, func(c *exec.Operator) { out = remoteTexts(*c, out) })
	return out
}

// tracedRemoteTexts collects the same from an EXPLAIN ANALYZE trace.
func tracedRemoteTexts(n *obs.TraceNode, out []string) []string {
	if rest, ok := strings.CutPrefix(n.Name, "Remote("); ok {
		out = append(out, strings.TrimSuffix(rest, ")"))
	}
	for _, c := range n.Children {
		out = tracedRemoteTexts(c, out)
	}
	return out
}

// TestShapeBoundTreesAnswerLikeFreshPlans: every statement of the plan-choice
// and guard experiments and of the benchmark's templates, in nine literal
// variations, runs through one session — so through templates and operator
// trees shared across the variations — while the clock flips every guard
// local → remote → local. Each answer, guard pick, plan cost, plan shape and
// shipped SQL text must be what a plan optimized for that very statement, run
// through a tree nobody ran before, gives; and the back end, which answers
// through the same kind of cache, must agree with its uncached self.
func TestShapeBoundTreesAnswerLikeFreshPlans(t *testing.T) {
	sys := loadedSystem(t, 0.01)
	var stmts []string
	for _, c := range harness.PlanChoiceCases() {
		stmts = append(stmts, c.SQL)
	}
	for _, g := range harness.GuardQueries() {
		stmts = append(stmts, g.Plain, g.Fresh, g.Stale)
	}
	stmts = append(stmts, benchTemplates(tpcd.Config{ScaleFactor: 0.01}.Customers())...)
	family := map[string][]string{}
	for _, sql := range stmts {
		family[sql] = variations(t, sql)
		if raceEnabled() || testing.Short() {
			// A third of the work where it runs ten times slower; the
			// statement and two literal variations still share trees.
			family[sql] = family[sql][:min(3, len(family[sql]))]
		}
	}

	sess := sys.Cache.NewSession()
	misses := sys.Cache.Obs().Counter("mtcache_plan_cache_misses_total")
	flips, remoteChecked := 0, 0
	for phase := 0; phase < 3; phase++ {
		switch phase {
		case 1:
			// Time passes with replication standing still: every region is
			// now staler than any bound.
			sys.Clock.Advance(2 * time.Hour)
		case 2:
			if err := sys.Run(31 * time.Second); err != nil { // replication catches up
				t.Fatal(err)
			}
		}
		for _, base := range stmts {
			for _, sql := range family[base] {
				sel, err := sqlparser.ParseSelect(sql)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				oracle, err := sys.Backend.QuerySelect(sel)
				if err != nil {
					t.Fatalf("%q at the back end: %v", sql, err)
				}
				want := rowStrings(oracle.Rows)

				m := misses.Value()
				qr, err := sess.Query(sql)
				if err != nil {
					t.Fatalf("phase %d %q: %v", phase, sql, err)
				}
				if phase > 0 && misses.Value() != m {
					t.Fatalf("phase %d %q: a statement seen before missed the statement cache", phase, sql)
				}
				if got := rowStrings(qr.Rows); !sameStrings(got, want) {
					t.Fatalf("phase %d %q: the session answered\n %v\nthe back end\n %v", phase, sql, got, want)
				}
				back, err := sys.QueryBackend(sql)
				if err != nil || !sameStrings(rowStrings(back.Rows), want) {
					t.Fatalf("phase %d %q: the back end's cached path (%v) disagrees with its uncached one", phase, sql, err)
				}

				// The same statement optimized for itself, on a new tree.
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
					t.Fatalf("phase %d %q on a fresh plan: %v", phase, sql, err)
				}
				if !sameStrings(rowStrings(res.Rows), want) {
					t.Fatalf("phase %d %q: the fresh plan disagrees with the back end", phase, sql)
				}
				picks := append([]string(nil), qr.LocalViews...)
				sort.Strings(picks)
				sort.Strings(fresh)
				if !sameStrings(picks, fresh) {
					t.Fatalf("phase %d %q: shared tree served %v locally, a fresh plan %v", phase, sql, picks, fresh)
				}
				if qr.Plan.Cost != plan.Cost || qr.Plan.Shape != plan.Shape || qr.Plan.Guards != plan.Guards {
					t.Fatalf("phase %d %q: the template says %s, a fresh optimize %s", phase, sql, qr.Plan, plan)
				}
				if phase == 1 && qr.Plan.Guards > 0 {
					if len(picks) != 0 {
						t.Fatalf("%q: guards stayed local %v on regions two hours stale", sql, picks)
					}
					flips++
				}

				// What would be shipped, executed or not, through EXPLAIN
				// ANALYZE of the session's (shared) plan.
				ea, err := sess.ExplainAnalyze(sql)
				if err != nil {
					t.Fatalf("phase %d EXPLAIN ANALYZE %q: %v", phase, sql, err)
				}
				shipped, wantShipped := tracedRemoteTexts(ea.Trace, nil), remoteTexts(plan.Root, nil)
				sort.Strings(shipped)
				sort.Strings(wantShipped)
				if !sameStrings(shipped, wantShipped) {
					t.Fatalf("phase %d %q: the shared plan ships\n %q\na fresh one\n %q", phase, sql, shipped, wantShipped)
				}
				remoteChecked += len(shipped)
				if !sameStrings(rowStrings(ea.Rows), want) {
					t.Fatalf("phase %d EXPLAIN ANALYZE %q: wrong rows", phase, sql)
				}
			}
		}
	}
	if !raceEnabled() && !testing.Short() && (flips < 100 || remoteChecked < 500) {
		t.Fatalf("only %d guarded runs flipped to remote, %d shipped texts compared", flips, remoteChecked)
	}
}

// TestPlansThatFlipWithALiteralKeepFlipping: a literal the optimizer read is
// part of the template's key. A range whose access path depends on how much
// of the table it covers, and an equality tested against a view's selection
// predicate, inside it and outside, each get what a fresh optimize gives —
// in either order, and again once all are cached.
func TestPlansThatFlipWithALiteralKeepFlipping(t *testing.T) {
	sys := loadedSystem(t, 0.01)
	view := &catalog.View{
		Name: "cust_high_nations", BaseTable: "Customer", RegionID: 1,
		Columns: []string{"c_custkey", "c_name", "c_nationkey"},
		Preds:   []catalog.SimplePred{{Column: "c_nationkey", Op: catalog.OpGE, Value: sqltypes.NewInt(20)}},
	}
	if err := sys.CreateView(view); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	// With the paper's statistics Table 4.2's Q6 and Q7 part ways: a selective
	// range goes to the back end's secondary index, a wide one to the view.
	harness.ScaleStatsToPaper(sys, 0.01)
	sys.Cache.InvalidatePlans()
	byNation := func(n int) string {
		return fmt.Sprintf("SELECT c_custkey, c_name FROM Customer WHERE c_nationkey = %d CURRENCY 3600 ON (Customer)", n)
	}
	texts := []string{
		tpcd.RangeQuery(0, 3.85, "CURRENCY 10 ON (Customer)"),
		tpcd.RangeQuery(0, 1000, "CURRENCY 10 ON (Customer)"),
		tpcd.RangeQuery(-500, 2.5, "CURRENCY 10 ON (Customer)"),
		byNation(22), byNation(3), byNation(24), byNation(19), byNation(20),
	}
	sess := sys.Cache.NewSession()
	shapes := map[string]bool{}
	for round := 0; round < 3; round++ {
		order := append([]string(nil), texts...)
		if round == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
			sys.Cache.InvalidatePlans() // plan them again, the other way round
		}
		for _, sql := range order {
			sel, err := sqlparser.ParseSelect(sql)
			if err != nil {
				t.Fatal(err)
			}
			plan, _, err := sys.Cache.Plan(sel, opt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			qr, err := sess.Query(sql)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			if qr.Plan.Shape != plan.Shape || qr.Plan.Cost != plan.Cost {
				t.Fatalf("round %d %q: the session ran %s, a fresh optimize gives %s", round, sql, qr.Plan, plan)
			}
			back, err := sys.Backend.QuerySelect(sel)
			if err != nil || !sameStrings(rowStrings(qr.Rows), rowStrings(back.Rows)) {
				t.Fatalf("round %d %q: %d rows, the back end (%v) has %d", round, sql, len(qr.Rows), err, len(back.Rows))
			}
			shapes[strings.SplitN(sql, " WHERE ", 2)[0]+" → "+qr.Plan.Shape] = true
		}
	}
	// Both statements do flip: each family shows two plan shapes.
	if len(shapes) != 4 {
		t.Fatalf("want two plan shapes per statement family, got %v", shapes)
	}
}

// TestGuardedStatementWithASmallFloatAnswersOnBothBranches: a FLOAT literal
// below 1e-4 (or from 1e6 up) printed in exponent form, which the lexer
// cannot read, so the shipped text failed at the back end and whether the
// query errored depended on the guard.
func TestGuardedStatementWithASmallFloatAnswersOnBothBranches(t *testing.T) {
	sys := loadedSystem(t, 0.01)
	for _, lit := range []string{"0.0000001", "1000000.5"} {
		var answers [2][]string
		for i, bound := range []string{"3600", "0"} {
			sql := fmt.Sprintf("SELECT c_custkey FROM Customer WHERE c_custkey = 3 AND c_acctbal > %s - 1000000.5 CURRENCY %s ON (Customer)", lit, bound)
			qr, err := sys.Query(sql)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			if local := qr.RemoteQueries == 0; local != (i == 0) {
				t.Fatalf("%q: answered locally: %v", sql, local)
			}
			answers[i] = rowStrings(qr.Rows)
		}
		if len(answers[0]) != 1 || !sameStrings(answers[0], answers[1]) {
			t.Fatalf("literal %s: local branch %v, remote branch %v", lit, answers[0], answers[1])
		}
	}
}

// TestSessionsShareAShapeUnderRace: four sessions run one point shape and
// one join shape with literals of their own — so trees checked in by one
// statement run next for another — while a goroutine creates views and
// invalidates plans. Run under -race; every answer is checked.
func TestSessionsShareAShapeUnderRace(t *testing.T) {
	sys := loadedSystem(t, 0.005)
	// 24 keys × point/join × a loose and a tight bound, answers worked out
	// up front on the back end's uncached path.
	var texts []string
	want := map[string][]string{}
	for key := int64(1); key <= 24; key++ {
		for _, kind := range []tpcd.QueryKind{tpcd.KindPoint, tpcd.KindJoin} {
			for _, bound := range []time.Duration{time.Hour, time.Second} { // local and remote branches
				sql := tpcd.Query(kind, key*29, bound)
				sel, err := sqlparser.ParseSelect(sql)
				if err != nil {
					t.Fatal(err)
				}
				back, err := sys.Backend.QuerySelect(sel)
				if err != nil {
					t.Fatal(err)
				}
				texts, want[sql] = append(texts, sql), rowStrings(back.Rows)
			}
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
				sql := texts[(i*7+w*31)%len(texts)]
				qr, err := sess.Query(sql)
				if err != nil {
					t.Errorf("%q: %v", sql, err)
				} else if got := rowStrings(qr.Rows); !sameStrings(got, want[sql]) {
					t.Errorf("%q: got %v, want %v", sql, got, want[sql])
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // the catalog changes underneath: plans and templates are dropped mid-flight
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if i%5 == 0 {
				view := &catalog.View{
					Name: fmt.Sprintf("cust_shape_race_%d", i), BaseTable: "Customer",
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
