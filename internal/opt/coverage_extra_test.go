package opt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

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
	plan, _, err := f.plan.PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
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

// TestEveryCandidateChecksEveryJoinEdge runs every plan candidate of a join on
// two edges, one of which the inner's index covers. Whatever the order of the
// edges in the statement, the edge the index does not cover must still filter:
// book i has one review rated i, so three books qualify.
func TestEveryCandidateChecksEveryJoinEdge(t *testing.T) {
	f := newBackendFixture(t)
	for _, on := range []string{"B.price = R.rating AND B.isbn = R.isbn", "B.isbn = R.isbn AND B.price = R.rating"} {
		sel, err := sqlparser.ParseSelect("SELECT B.isbn, R.rating FROM Books B JOIN Reviews R ON " + on + " WHERE B.isbn <= 5")
		if err != nil {
			t.Fatal(err)
		}
		plans, err := f.plan.Candidates(sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			res, err := exec.Run(p.Root, &exec.EvalContext{Now: vclock.Epoch}, 0)
			if err != nil {
				t.Fatalf("%s: %v", p.Shape, err)
			}
			if len(res.Rows) != 3 {
				t.Errorf("ON %s: %s returned %d rows, want 3", on, p.Shape, len(res.Rows))
			}
		}
	}
}

// TestTreesOfOnePlanRunInParallel builds trees of every candidate of a join,
// a grouping and a DISTINCT statement from several goroutines at once, as
// sessions sharing a cached plan do, and runs each tree twice. The trees
// share the plan's key ordinals; under -race a tree that wrote to them would
// show.
func TestTreesOfOnePlanRunInParallel(t *testing.T) {
	f := newBackendFixture(t)
	for sql, want := range map[string]int{
		"SELECT B.title, R.rating FROM Books B JOIN Reviews R ON B.isbn = R.isbn AND B.price = R.rating":    3,
		"SELECT B.isbn FROM Books B WHERE EXISTS (SELECT 1 FROM Reviews R WHERE R.isbn = B.isbn)":           200,
		"SELECT R.rating, COUNT(*) FROM Reviews R GROUP BY R.rating":                                        3,
		"SELECT DISTINCT R.rating, B.price FROM Books B JOIN Reviews R ON B.isbn = R.isbn WHERE B.isbn < 3": 6,
	} {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := f.plan.Candidates(sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for w := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tree, err := p.Build()
					for run := 0; run < 2 && err == nil; run++ {
						var res *exec.Result
						if res, err = exec.Run(tree, &exec.EvalContext{Now: vclock.Epoch, BatchSize: 7}, 0); err == nil && len(res.Rows) != want {
							err = fmt.Errorf("%d rows, want %d", len(res.Rows), want)
						}
					}
					errs[w] = err
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Errorf("%s: %s: %v", sql, p.Shape, err)
			}
		}
	}
}
