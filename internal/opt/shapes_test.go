package opt_test

import (
	"fmt"
	"testing"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// TestPlanPinsExactlyTheLiteralsItRead: Plan.Pinned names the literal slots
// whose values the optimizer looked at. An equality on a key column over an
// unrestricted view, and its copy across a join edge, are not among them; a
// range end, a literal competing for an index bound, an equality on the
// column of a view's selection predicate and a literal inside an aggregate
// are.
func TestPlanPinsExactlyTheLiteralsItRead(t *testing.T) {
	c, _ := cacheFixture(t)
	for _, tc := range []struct {
		sql  string
		want uint64
	}{
		{"SELECT i_price FROM Item WHERE i_id = 7 CURRENCY 60 ON (Item)", 0},
		{"SELECT i_price, 5 FROM Item WHERE i_id = 7 AND i_price <> 2.5 CURRENCY 60 ON (Item)", 0},
		{"SELECT I.i_id, S.s_qty FROM Item I JOIN Stock S ON I.i_id = S.s_item WHERE I.i_id = 7 CURRENCY 60 ON (I), 60 ON (S)", 0},
		{"SELECT i_id FROM Item WHERE i_price >= 300.5 CURRENCY 60 ON (Item)", 0b1},
		{"SELECT i_id FROM Item WHERE i_id = 7 AND i_price BETWEEN 1.5 AND 9.5 CURRENCY 60 ON (Item)", 0b110},
		{"SELECT i_id FROM Item WHERE i_id > 7 AND i_id > 9 CURRENCY 60 ON (Item)", 0b11},
		// i_cat is the column of item_cat3's selection predicate.
		{"SELECT i_id FROM Item WHERE i_cat = 3 AND i_id = 8 CURRENCY 60 ON (Item)", 0b01},
		{"SELECT SUM(i_price * 2), COUNT(*) FROM Item WHERE i_id = 8 CURRENCY 60 ON (Item)", 0b01},
	} {
		p := plan(t, c, tc.sql, opt.Options{})
		if p.Pinned != tc.want {
			t.Errorf("%q pinned %b, want %b", tc.sql, p.Pinned, tc.want)
		}
	}
}

// TestShapesFileTemplatesByPinnedValues drives the shape cache by hand:
// texts that differ in a free literal share a template and run each other's
// trees; a text that differs in a pinned one gets its own; a read of a slot
// that was free grows the mask and drops what was filed under the shorter
// keys; texts that do not scan, or have too many literals, are not shared.
func TestShapesFileTemplatesByPinnedValues(t *testing.T) {
	c, _ := cacheFixture(t)
	var shapes opt.Shapes
	find := func(sql string) (*opt.Template, []sqltypes.Value) {
		skel, vals, ok := sqlparser.Scan(sql, nil, nil)
		if !ok {
			t.Fatalf("%q does not scan", sql)
		}
		return shapes.Find(skel, vals), vals
	}
	add := func(sql string) (*opt.Template, []sqltypes.Value, *opt.Plan) {
		skel, vals, _ := sqlparser.Scan(sql, nil, nil)
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := c.Plan(sel, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tmpl, params := shapes.Add(skel, vals, sel, p)
		return tmpl, params, p
	}
	point := func(id, top string) string {
		return "SELECT TOP " + top + " i_price FROM Item WHERE i_id = " + id + " CURRENCY 3600 ON (Item)"
	}
	if tmpl, _ := find(point("7", "5")); tmpl != nil {
		t.Fatal("an empty cache found a template")
	}
	t7, params, p7 := add(point("7", "5"))
	if t7.Plan.Root != nil || t7.Plan.Shape != p7.Shape || len(params) != 3 || params[1].Int() != 7 {
		t.Fatalf("template %+v, params %v", t7.Plan, params)
	}
	if got := t7.Text.Splice(params); got != "SELECT TOP 5 i_price FROM Item WHERE (i_id = 7) CURRENCY 1 HOUR ON (Item)" {
		t.Fatalf("canonical text spliced as %q", got)
	}
	// Another key: same template; its tree, built for 7, answers for 123.
	t.Run("free literal", func(t *testing.T) {
		tmpl, params := find(point("-123", "5"))
		if tmpl != nil {
			t.Fatal("a folded minus is another skeleton")
		}
		tmpl, params = find(point("123", "5"))
		if tmpl != t7 || params[1].Int() != 123 {
			t.Fatalf("template %p (want %p), params %v", tmpl, t7, params)
		}
		t7.CheckIn(p7.Root)
		root := tmpl.TakeIdle()
		if root != p7.Root || tmpl.TakeIdle() != nil {
			t.Fatal("the idle tree did not come back, once")
		}
		res, err := exec.Run(root, &exec.EvalContext{Now: c.Clock().Now(), Params: params}, 0)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Float() != 123 {
			t.Fatalf("tree built for i_id = 7 run with 123: %v, %v", res, err)
		}
		if got := tmpl.Text.Splice(params); got != "SELECT TOP 5 i_price FROM Item WHERE (i_id = 123) CURRENCY 1 HOUR ON (Item)" {
			t.Fatalf("canonical text spliced as %q", got)
		}
	})
	// The TOP count and the currency bound are no literals: always by value.
	if tmpl, _ := find(point("7", "6")); tmpl != nil {
		t.Fatal("a different TOP count found the template")
	}
	if tmpl, _ := find("SELECT TOP 5 i_price FROM Item WHERE i_id = 7 CURRENCY 60 ON (Item)"); tmpl != nil {
		t.Fatal("a different currency bound found the template")
	}
	// A second statement of the shape planned at once by two sessions: the
	// first filed wins.
	first, _, _ := add(point("8", "6"))
	if second, params, _ := add(point("9", "6")); second != first || params[1].Int() != 9 {
		t.Fatal("the second plan of one shape replaced the first")
	}

	// Growing the mask: a range's template holds its end by value; a shape
	// whose later planning reads a slot the first left alone starts over.
	rng := func(lo string) string {
		return "SELECT i_id FROM Item WHERE i_price >= " + lo + " CURRENCY 3600 ON (Item)"
	}
	r1, _, _ := add(rng("300.5"))
	if tmpl, _ := find(rng("300.5")); tmpl != r1 {
		t.Fatal("the range statement does not find its own template")
	}
	if tmpl, _ := find(rng("2.5")); tmpl != nil {
		t.Fatal("another range end found the template")
	}
	skel, vals, _ := sqlparser.Scan(point("7", "5"), nil, nil)
	sel, _ := sqlparser.ParseSelect(point("7", "5"))
	grown := *p7
	grown.Pinned = 0b010 // as if this planning had read the key
	if tmpl, _ := shapes.Add(skel, vals, sel, &grown); tmpl == t7 {
		t.Fatal("a plan that read more kept the old template")
	}
	if tmpl, _ := find(point("123", "5")); tmpl != nil {
		t.Fatal("the key is pinned now: 123 must not find 7's template")
	}
	if tmpl, _ := find(point("7", "5")); tmpl == nil || tmpl == t7 {
		t.Fatal("7 must find the re-filed template")
	}

	// Not shared: no skeleton, or more literal tokens than a mask holds.
	if tmpl, params := shapes.Add(nil, nil, sel, p7); tmpl == nil || params != nil {
		t.Fatal("a statement without a skeleton still gets a template of its own, and no parameters")
	}
	many := "SELECT i_id FROM Item WHERE i_id IN (0"
	for i := 1; i <= 64; i++ {
		many += ", 1"
	}
	many += ") CURRENCY 3600 ON (Item)"
	if _, params, _ := add(many); params != nil {
		t.Fatal("65 literal tokens were shared")
	}
	if tmpl, _ := find(many); tmpl != nil {
		t.Fatal("65 literal tokens were filed")
	}
	shapes.Reset()
	if tmpl, _ := find(rng("300.5")); tmpl != nil {
		t.Fatal("Reset left a template")
	}
}

// TestShapesStayBoundedUnderOneSkeleton: a stream of statements of one known
// skeleton, each with another pinned value (range ends), keeps no more
// templates than the bound — the cache is emptied when full at every insert,
// not only when a new skeleton is filed — and the latest is always found.
func TestShapesStayBoundedUnderOneSkeleton(t *testing.T) {
	c, _ := cacheFixture(t)
	var shapes opt.Shapes
	rng := func(i int) string {
		return fmt.Sprintf("SELECT i_id FROM Item WHERE i_price >= %d.5 CURRENCY 3600 ON (Item)", i)
	}
	sel, err := sqlparser.ParseSelect(rng(0))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := c.Plan(sel, opt.Options{})
	if err != nil || p.Pinned != 0b1 {
		t.Fatalf("plan pinned %b, %v", p.Pinned, err)
	}
	found := func(i int) bool {
		skel, vals, _ := sqlparser.Scan(rng(i), nil, nil)
		return shapes.Find(skel, vals) != nil
	}
	const bound, n = 512, 3*512 + 100
	for i := 0; i < n; i++ {
		skel, vals, _ := sqlparser.Scan(rng(i), nil, nil)
		shapes.Add(skel, vals, sel, p)
		if !found(i) {
			t.Fatalf("range end %d not found right after it was filed", i)
		}
	}
	kept := 0
	for i := 0; i < n; i++ {
		if found(i) {
			kept++
		}
	}
	if kept == 0 || kept > bound {
		t.Fatalf("%d templates kept under one skeleton, bound %d", kept, bound)
	}
}
