package opt

import (
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/vclock"
)

// TestSemiJoinResidualAcrossLeaves exercises splitResiduals and the
// enumeration constraints: a non-equi predicate linking the outer block and
// an EXISTS subquery must be evaluated inside the semi join.
func TestSemiJoinResidualAcrossLeaves(t *testing.T) {
	f := newBackendFixture(t)
	_, rows := f.run(t, `SELECT B.isbn FROM Books B
		WHERE EXISTS (SELECT 1 FROM Reviews R WHERE R.isbn = B.isbn AND R.rating > B.isbn)`)
	// rating in {1,2,3}: only isbn 1 (ratings up to 3 > 1) and isbn 2
	// (rating 3 > 2) qualify.
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestResidualSpanningTwoExistsRejected(t *testing.T) {
	f := newBackendFixture(t)
	sel, err := sqlparser.ParseSelect(`SELECT B.isbn FROM Books B
		WHERE EXISTS (SELECT 1 FROM Reviews R WHERE R.rating > 0)
		AND EXISTS (SELECT 1 FROM Reviews R2 WHERE R2.rating > R.rating)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.plan.PlanSelect(sel); err == nil {
		t.Fatal("predicate across two EXISTS subqueries accepted")
	}
}

// TestMultiLeafResidualFiltersAtTop exercises non-equi predicates between
// inner leaves (kept as a top-level filter).
func TestMultiLeafResidualFiltersAtTop(t *testing.T) {
	f := newBackendFixture(t)
	_, rows := f.run(t, `SELECT B.isbn, R.rating FROM Books B JOIN Reviews R ON B.isbn = R.isbn
		WHERE B.isbn <= 5 AND R.rating * 2 > B.isbn`)
	// For isbn i, ratings {1,2,3}: count ratings with 2r > i.
	want := 0
	for i := 1; i <= 5; i++ {
		for r := 1; r <= 3; r++ {
			if 2*r > i {
				want++
			}
		}
	}
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
}

func TestQueryStringHelpers(t *testing.T) {
	f := newBackendFixture(t)
	sel, _ := sqlparser.ParseSelect("SELECT B.title FROM Books B WHERE B.isbn = 1")
	plan, q, err := f.plan.PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.binding(q.Leaves[0].ID); got != "B" {
		t.Fatalf("binding = %q", got)
	}
	if got := q.binding(999); !strings.Contains(got, "?") {
		t.Fatalf("missing binding = %q", got)
	}
	if !strings.Contains(plan.String(), "cost=") {
		t.Fatalf("Plan.String = %q", plan.String())
	}
}

func TestExprTouches(t *testing.T) {
	sel, _ := sqlparser.ParseSelect(
		"SELECT 1 FROM t WHERE a.x + 1 > 2 AND b.y IN (1, 2) AND NOT (c.z IS NULL) AND d.w BETWEEN 1 AND 2 AND ABS(e.v) = 1")
	for _, c := range []struct {
		binding string
		want    bool
	}{
		{"a", true}, {"b", true}, {"c", true}, {"d", true}, {"e", true}, {"zz", false},
	} {
		if got := exprTouches(sel.Where, c.binding); got != c.want {
			t.Errorf("exprTouches(%s) = %v", c.binding, got)
		}
	}
}

func TestRewriteExprCoversAllForms(t *testing.T) {
	cat := bookstoreCatalog(t)
	q := algebrize(t, cat, `SELECT -B.price, ABS(B.price) FROM Books B
		WHERE (B.price + 1) * 2 / 2 - 1 > 0
		AND B.price BETWEEN 1 AND 100
		AND B.isbn IN (1, 2, 3)
		AND B.title IS NOT NULL
		AND NOT (B.price = 13)`)
	if len(q.Leaves[0].Preds) != 5 {
		t.Fatalf("preds = %d", len(q.Leaves[0].Preds))
	}
	// Round trip all predicates and items through SQL text.
	for _, p := range q.Leaves[0].Preds {
		if _, err := sqlparser.ParseSelect("SELECT 1 FROM Books B WHERE " + p.SQL()); err != nil {
			t.Fatalf("pred %q does not re-parse: %v", p.SQL(), err)
		}
	}
}

func TestCheckGroupedRejectsUngroupedArithmetic(t *testing.T) {
	cat := bookstoreCatalog(t)
	sel, _ := sqlparser.ParseSelect("SELECT B.price + 1 FROM Books B GROUP BY B.isbn")
	if _, err := Algebrize(sel, cat); err == nil {
		t.Fatal("ungrouped column in arithmetic accepted")
	}
	// Grouped arithmetic and literals are fine.
	sel, _ = sqlparser.ParseSelect("SELECT B.isbn + 1, 7, -B.isbn, COUNT(*) FROM Books B GROUP BY B.isbn")
	if _, err := Algebrize(sel, cat); err != nil {
		t.Fatal(err)
	}
}

func TestExtractAggsInsideExpressions(t *testing.T) {
	cat := bookstoreCatalog(t)
	q := algebrize(t, cat, `SELECT SUM(R.rating) / COUNT(*) AS ratio, -MAX(R.rating)
		FROM Reviews R GROUP BY R.isbn HAVING NOT (SUM(R.rating) = 0)`)
	if len(q.Aggs) != 3 { // SUM, COUNT, MAX (SUM reused by HAVING)
		t.Fatalf("aggs = %d", len(q.Aggs))
	}
}

func TestAggregateWrongArity(t *testing.T) {
	cat := bookstoreCatalog(t)
	sel, _ := sqlparser.ParseSelect("SELECT SUM(R.rating, R.isbn) FROM Reviews R")
	if _, err := Algebrize(sel, cat); err == nil {
		t.Fatal("two-argument SUM accepted")
	}
}

func TestCurrencyGuardFallbackWithoutHeartbeatTable(t *testing.T) {
	// A Site wired without a heartbeat table uses the RegionClock fallback.
	regions := fakeRegions{1: vclock.Epoch.Add(100 * time.Second)}
	p := &Planner{Site: &Site{Regions: regions}}
	now := vclock.Epoch.Add(105 * time.Second)
	ctx := &evalCtx{now: now}

	sel := p.currencyGuard(1, 10*time.Second)()
	if got, _ := sel(ctx.ctx()); got != 0 {
		t.Fatal("5s stale within 10s should be local")
	}
	sel = p.currencyGuard(1, 2*time.Second)()
	if got, _ := sel(ctx.ctx()); got != 1 {
		t.Fatal("5s stale beyond 2s should be remote")
	}
	sel = p.currencyGuard(9, time.Hour)()
	if got, _ := sel(ctx.ctx()); got != 1 {
		t.Fatal("unsynced region should be remote")
	}
	// Timeline floor.
	p.Opts.MinSync = now
	sel = p.currencyGuard(1, time.Hour)()
	if got, _ := sel(ctx.ctx()); got != 1 {
		t.Fatal("floor above sync should be remote")
	}
}

type fakeRegions map[int]time.Time

func (f fakeRegions) LastSync(id int) (time.Time, bool) {
	ts, ok := f[id]
	return ts, ok
}

type evalCtx struct{ now time.Time }

func (e *evalCtx) ctx() *exec.EvalContext { return &exec.EvalContext{Now: e.now} }

// TestFourTableJoinEnumeration validates the DP enumerator on a longer
// chain: Books -> Reviews -> plus two EXISTS filters.
func TestFourTableJoinEnumeration(t *testing.T) {
	f := newBackendFixture(t)
	_, rows := f.run(t, `SELECT B.isbn, R.rating
		FROM Books B JOIN Reviews R ON B.isbn = R.isbn
		WHERE B.isbn <= 20
		AND EXISTS (SELECT 1 FROM Reviews R2 WHERE R2.isbn = B.isbn AND R2.rating = 1)
		AND EXISTS (SELECT 1 FROM Books B2 WHERE B2.isbn = B.isbn AND B2.price > 0)`)
	// Every book has a rating-1 review and positive price: 20 books x 3.
	if len(rows) != 60 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestCartesianProductFallback: no join predicate at all still plans (as a
// keyless hash join).
func TestCartesianProductFallback(t *testing.T) {
	f := newBackendFixture(t)
	_, rows := f.run(t, "SELECT B.isbn FROM Books B, Reviews R WHERE B.isbn = 1 AND R.review_id = 10")
	if len(rows) != 1 {
		t.Fatalf("cartesian rows = %d", len(rows))
	}
}
