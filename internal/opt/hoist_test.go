package opt_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqltypes"
)

// localBranch returns the root guard of a hoisted plan and the operators of
// its local branch from the top down to the first one with no single child.
func localBranch(t *testing.T, p *opt.Plan) (*exec.SwitchUnion, []exec.Operator) {
	t.Helper()
	su, ok := p.Root.(*exec.SwitchUnion)
	if !ok {
		t.Fatalf("%s: root is %T, want the guard", p.Shape, p.Root)
	}
	var chain []exec.Operator
	for op := su.Children[0]; ; {
		chain = append(chain, op)
		var kids []exec.Operator
		exec.VisitChildren(op, func(c *exec.Operator) { kids = append(kids, *c) })
		if len(kids) != 1 {
			return su, chain
		}
		op = kids[0]
	}
}

// TestShrinkingStatementsGetOneGuardAtTheRoot: an aggregate or a TOP over a
// view plans as SwitchUnion(finishing operators over the unguarded view |
// Remote(the whole statement)), the aggregate reads the scan directly (no
// column-pruning Project in between) and TOP reaches the Sort; when the guard
// fails the fall-back ships the answer, not the aggregate's input.
func TestShrinkingStatementsGetOneGuardAtTheRoot(t *testing.T) {
	c, clock := cacheFixture(t)
	const agg = `SELECT I.i_cat, COUNT(*) AS n, SUM(I.i_price) AS total FROM Item I GROUP BY I.i_cat CURRENCY 60 ON (I)`
	const top = `SELECT TOP 5 I.i_id, I.i_price FROM Item I WHERE I.i_price >= 0 ORDER BY I.i_price DESC CURRENCY 60 ON (I)`
	const aggTop = `SELECT TOP 3 I.i_cat, SUM(I.i_price) AS total FROM Item I GROUP BY I.i_cat ORDER BY total DESC CURRENCY 60 ON (I)`
	for sql, wantChain := range map[string]string{
		agg:    "*exec.Project *exec.Aggregate *exec.Scan",
		top:    "*exec.Project *exec.Limit *exec.Sort *exec.Project *exec.Scan",
		aggTop: "*exec.Project *exec.Limit *exec.Sort *exec.Aggregate *exec.Scan",
	} {
		p := plan(t, c, sql, opt.Options{MaxDOP: 1})
		if p.Shape != "Guard(View(item_prj)|Remote)" || p.Guards != 1 || !p.UsesLocal || p.LocalLeaves != 1 {
			t.Fatalf("%s\nplanned %s with %d guards", sql, p, p.Guards)
		}
		su, chain := localBranch(t, p)
		var names []string
		for _, op := range chain {
			names = append(names, fmt.Sprintf("%T", op))
			if srt, ok := op.(*exec.Sort); ok && srt.TopN == 0 {
				t.Errorf("%s: the Sort under TOP keeps every row", sql)
			}
		}
		if got := strings.Join(names, " "); got != wantChain {
			t.Errorf("%s\nlocal branch is %s, want %s", sql, got, wantChain)
		}
		rem, ok := su.Children[1].(*exec.Remote)
		if !ok || strings.Contains(rem.SQL, "CURRENCY") || !strings.HasPrefix(rem.SQL, "SELECT") || strings.Contains(rem.SQL, "TOP") != strings.Contains(sql, "TOP") {
			t.Errorf("%s\nfall-back is %T %v, want the statement shipped whole", sql, su.Children[1], su.Children[1])
		}
		if su.Region != 1 || su.Bound != 60*time.Second {
			t.Errorf("%s: guard checks region %d within %v", sql, su.Region, su.Bound)
		}

		// Inside the bound the local branch answers and nothing is shipped;
		// past it the fall-back ships no more rows than the answer has.
		want := backendRows(t, c, sql)
		before := c.Link().Stats()
		assertRowsEqual(t, sql+" (local)", runPlan(t, c, p), want)
		if d := c.Link().Stats().Queries - before.Queries; d != 0 {
			t.Errorf("%s: %d remote queries inside the bound", sql, d)
		}
		clock.Advance(2 * time.Minute)
		fresh := plan(t, c, sql, opt.Options{MaxDOP: 1})
		before = c.Link().Stats()
		assertRowsEqual(t, sql+" (fall-back)", runPlan(t, c, fresh), want)
		after := c.Link().Stats()
		if after.Queries-before.Queries != 1 || after.Rows-before.Rows > int64(len(want)) {
			t.Errorf("%s: fall-back made %d queries for %d rows, the answer has %d", sql, after.Queries-before.Queries, after.Rows-before.Rows, len(want))
		}
		c.SetLastSync(1, clock.Now())
		c.SetLastSync(2, clock.Now())
	}
}

// TestHoistedGuardCoversOneRegion: a join aggregate over two views of one
// region gets one guard for both — which also lets a consistency class that
// spans the two tables be served locally, where per-leaf guards cannot
// promise one snapshot; one whose views sit in two regions cannot be vouched
// for by one guard, so each hoisted candidate joins its region's view with a
// remote fetch of the other table; a statement that does not shrink its
// input keeps its guards at the leaves.
func TestHoistedGuardCoversOneRegion(t *testing.T) {
	c, _ := cacheFixture(t)
	same := plan(t, c, `SELECT I.i_id, SUM(S.s_qty) AS q FROM Item I JOIN Stock S ON I.i_id = S.s_item
		WHERE I.i_cat = 3 GROUP BY I.i_id CURRENCY 40 ON (I, S)`, opt.Options{})
	su, _ := localBranch(t, same)
	if same.Guards != 1 || same.LocalLeaves != 2 || same.RemoteLeaves != 0 || su.Region != 2 || su.Bound != 40*time.Second {
		t.Fatalf("same-region join aggregate: %s, %d local and %d remote leaves, guard on region %d within %v",
			same, same.LocalLeaves, same.RemoteLeaves, su.Region, su.Bound)
	}
	assertRowsEqual(t, "same-region", runPlan(t, c, same), backendRows(t, c,
		`SELECT I.i_id, SUM(S.s_qty) AS q FROM Item I JOIN Stock S ON I.i_id = S.s_item WHERE I.i_cat = 3 GROUP BY I.i_id`))

	const twoRegions = `SELECT I.i_cat, SUM(S.s_qty) AS q FROM Item I JOIN Stock S ON I.i_id = S.s_item
		WHERE I.i_price >= 0 GROUP BY I.i_cat CURRENCY 60 ON (I), 60 ON (S)`
	two := plan(t, c, twoRegions, opt.Options{ForceLocal: true})
	if !two.UsesLocal || two.Delivered.String() == same.Delivered.String() {
		t.Fatalf("two-region join aggregate: %s delivers %v", two, two.Delivered)
	}
	assertRowsEqual(t, "two-region", runPlan(t, c, two), backendRows(t, c, twoRegions))

	plain := plan(t, c, `SELECT I.i_id, I.i_price FROM Item I WHERE I.i_price >= 0 CURRENCY 60 ON (I)`, opt.Options{ForceLocal: true})
	if plain.Shape != "Guard(item_prj|Remote(Item))" {
		t.Fatalf("a statement without aggregate or TOP planned %s", plain)
	}
	if _, isGuard := plain.Root.(*exec.SwitchUnion); isGuard {
		t.Fatalf("a statement without aggregate or TOP got its guard hoisted: %s", plain)
	}
}

// backendRows fetches the statement's answer from the back end, currency
// clause removed.
func backendRows(t *testing.T, c *mtcache.Cache, sql string) []sqltypes.Row {
	t.Helper()
	rows, err := c.Link().Query(strings.Split(sql, "CURRENCY")[0])
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// assertRowsEqual compares two answers as multisets.
func assertRowsEqual(t *testing.T, name string, got, want []sqltypes.Row) {
	t.Helper()
	render := func(rows []sqltypes.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}
	if g, w := render(got), render(want); !slices.Equal(g, w) {
		t.Fatalf("%s: got %v, want %v", name, g, w)
	}
}
