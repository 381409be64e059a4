package opt

import (
	"math"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/vclock"
)

// backendFixture is a self-contained single-site planner setup with data.
type backendFixture struct {
	cat    *catalog.Catalog
	tables map[string]*storage.Table
	plan   *Planner
}

func newBackendFixture(t *testing.T) *backendFixture {
	t.Helper()
	f := &backendFixture{cat: catalog.New(), tables: map[string]*storage.Table{}}
	books := &catalog.Table{
		Name: "Books",
		Columns: []catalog.Column{
			{Name: "isbn", Type: sqltypes.KindInt, NotNull: true},
			{Name: "title", Type: sqltypes.KindString},
			{Name: "price", Type: sqltypes.KindFloat},
		},
		PrimaryKey: []string{"isbn"},
	}
	reviews := &catalog.Table{
		Name: "Reviews",
		Columns: []catalog.Column{
			{Name: "review_id", Type: sqltypes.KindInt, NotNull: true},
			{Name: "isbn", Type: sqltypes.KindInt, NotNull: true},
			{Name: "rating", Type: sqltypes.KindInt},
		},
		PrimaryKey: []string{"review_id"},
	}
	for _, def := range []*catalog.Table{books, reviews} {
		if err := f.cat.AddTable(def); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.cat.AddIndex(&catalog.Index{Name: "ix_price", Table: "Books", Columns: []string{"price"}}); err != nil {
		t.Fatal(err)
	}
	if err := f.cat.AddIndex(&catalog.Index{Name: "ix_rev_isbn", Table: "Reviews", Columns: []string{"isbn"}}); err != nil {
		t.Fatal(err)
	}
	for _, def := range []*catalog.Table{books, reviews} {
		f.tables[def.Name] = storage.NewTable(def)
	}
	for i := int64(1); i <= 200; i++ {
		if err := f.tables["Books"].Replace(nil, sqltypes.Row{
			sqltypes.NewInt(i),
			sqltypes.NewString("title"),
			sqltypes.NewFloat(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
		for r := int64(0); r < 3; r++ {
			if err := f.tables["Reviews"].Replace(nil, sqltypes.Row{
				sqltypes.NewInt(i*10 + r),
				sqltypes.NewInt(i),
				sqltypes.NewInt(r + 1),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, tbl := range f.tables {
		def := f.cat.Table(name)
		stats := tbl.Analyze()
		def.Stats.Set(stats.RowCount, stats.AvgRowBytes, stats.Columns)
	}
	f.plan = NewPlanner(&Site{
		Cat:        f.cat,
		LocalTable: func(n string) *storage.Table { return f.tables[n] },
		LocalView:  func(string) *storage.Table { return nil },
		Clock:      vclock.NewVirtual(),
	})
	return f
}

func (f *backendFixture) run(t *testing.T, sql string) (*Plan, []sqltypes.Row) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := f.plan.PlanSelect(sel)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	res, err := exec.Run(plan.Root, &exec.EvalContext{Now: vclock.Epoch}, 0)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return plan, res.Rows
}

func TestBackendPointLookup(t *testing.T) {
	f := newBackendFixture(t)
	plan, rows := f.run(t, "SELECT title FROM Books WHERE isbn = 42")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if !strings.Contains(plan.Shape, "Scan(Books)") {
		t.Fatalf("shape = %s", plan.Shape)
	}
}

func TestBackendRangeUsesSecondaryIndex(t *testing.T) {
	f := newBackendFixture(t)
	// Verify the access path decision directly.
	sel, _ := sqlparser.ParseSelect("SELECT isbn FROM Books WHERE price BETWEEN 10 AND 20")
	q, err := Algebrize(sel, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	leaf := q.Leaves[0]
	path := chooseAccessPath(leaf.pins, f.cat.Table("Books"), leaf.Table.Stats, leaf.Preds, leafRows(leaf))
	if path.index != "ix_price" {
		t.Fatalf("access path index = %q", path.index)
	}
	if len(path.residual) != 0 {
		t.Fatalf("range should be fully absorbed, residual = %v", path.residual)
	}
	_, rows := f.run(t, "SELECT isbn FROM Books WHERE price BETWEEN 10 AND 20")
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestBackendJoinCorrectAndCountsMatch(t *testing.T) {
	f := newBackendFixture(t)
	_, rows := f.run(t, `SELECT B.isbn, R.rating FROM Books B JOIN Reviews R ON B.isbn = R.isbn
		WHERE B.isbn <= 10`)
	if len(rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(rows))
	}
}

func TestBackendSemiJoin(t *testing.T) {
	f := newBackendFixture(t)
	_, rows := f.run(t, `SELECT B.isbn FROM Books B
		WHERE EXISTS (SELECT 1 FROM Reviews R WHERE R.isbn = B.isbn AND R.rating = 3)`)
	if len(rows) != 200 {
		t.Fatalf("semi rows = %d", len(rows))
	}
	_, rows = f.run(t, `SELECT B.isbn FROM Books B
		WHERE NOT EXISTS (SELECT 1 FROM Reviews R WHERE R.isbn = B.isbn AND R.rating = 7)`)
	if len(rows) != 200 {
		t.Fatalf("anti rows = %d", len(rows))
	}
}

func TestBackendDistinctTopOrder(t *testing.T) {
	f := newBackendFixture(t)
	_, rows := f.run(t, "SELECT DISTINCT rating FROM Reviews")
	if len(rows) != 3 {
		t.Fatalf("distinct = %v", rows)
	}
	_, rows = f.run(t, "SELECT TOP 5 isbn FROM Books ORDER BY price DESC")
	if len(rows) != 5 || rows[0][0].Int() != 200 {
		t.Fatalf("top = %v", rows)
	}
}

func TestBoundsForIndex(t *testing.T) {
	idx := &catalog.Index{Name: "ix", Columns: []string{"price"}}
	parse := func(where string) []sqlparser.Expr {
		sel, err := sqlparser.ParseSelect("SELECT 1 FROM t WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		return conjuncts(sel.Where)
	}
	var read pins
	rng, used, res := boundsForIndex(&read, idx, parse("price >= 5 AND price < 9"))
	if !used || len(res) != 0 {
		t.Fatalf("used=%v res=%v", used, res)
	}
	if rng.loSlot != 2 || rng.hiSlot != 3 || read != 0 {
		t.Fatalf("ends from slots %d and %d, read %b; want 2 and 3 (slot 1 is the select list's) and none read", rng.loSlot, rng.hiSlot, read)
	}
	lo, hi := rng.lo, rng.hi
	if !lo.Inclusive || lo.Vals[0].Int() != 5 || hi.Inclusive || hi.Vals[0].Int() != 9 {
		t.Fatalf("bounds = %+v %+v", lo, hi)
	}
	// Equality pins both ends.
	rng, used, _ = boundsForIndex(&read, idx, parse("price = 7"))
	lo, hi = rng.lo, rng.hi
	if !used || lo.Vals[0].Int() != 7 || hi.Vals[0].Int() != 7 || !lo.Inclusive || !hi.Inclusive {
		t.Fatalf("eq bounds = %+v %+v", lo, hi)
	}
	// Unrelated predicate stays residual; no leading-column constraint.
	_, used, res = boundsForIndex(&read, idx, parse("other = 1"))
	if used || len(res) != 1 {
		t.Fatal("unconstrained index should not be used")
	}
	// Flipped literal comparison (5 < price).
	rng, used, _ = boundsForIndex(&read, idx, parse("5 < price"))
	lo = rng.lo
	if !used || lo.Inclusive || lo.Vals[0].Int() != 5 {
		t.Fatalf("flipped bounds = %+v", lo)
	}
	// Tighter of two lower bounds wins.
	if read != 0 {
		t.Fatalf("an end set by one predicate alone was read: %b", read)
	}
	rng, _, _ = boundsForIndex(&read, idx, parse("price > 3 AND price > 8"))
	if lo = rng.lo; lo.Vals[0].Int() != 8 {
		t.Fatalf("tighter bound = %+v", lo)
	}
	// Two predicates competing for one end are compared: both are pinned.
	if read != 0b110 {
		t.Fatalf("pinned %b, want slots 2 and 3", read)
	}
}

func TestViewMatching(t *testing.T) {
	leafTable := &catalog.Table{
		Name: "T",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt, NotNull: true},
			{Name: "a", Type: sqltypes.KindInt},
			{Name: "b", Type: sqltypes.KindInt},
		},
		PrimaryKey: []string{"id"},
	}
	parsePreds := func(where string) []sqlparser.Expr {
		sel, _ := sqlparser.ParseSelect("SELECT 1 FROM T WHERE " + where)
		return conjuncts(sel.Where)
	}
	leaf := &Leaf{Table: leafTable, Binding: "T", Cols: []string{"id", "a"}}

	full := &catalog.View{Name: "v", BaseTable: "T", Columns: []string{"id", "a", "b"}}
	if !viewMatches(full, leaf) {
		t.Fatal("full projection should match")
	}
	missing := &catalog.View{Name: "v", BaseTable: "T", Columns: []string{"id", "b"}}
	if viewMatches(missing, leaf) {
		t.Fatal("view missing column a must not match")
	}
	otherTable := &catalog.View{Name: "v", BaseTable: "U", Columns: []string{"id", "a"}}
	if viewMatches(otherTable, leaf) {
		t.Fatal("different base table must not match")
	}
	// Selection views: query pred must imply view pred.
	selView := &catalog.View{
		Name: "v", BaseTable: "T", Columns: []string{"id", "a"},
		Preds: []catalog.SimplePred{{Column: "a", Op: catalog.OpGE, Value: sqltypes.NewInt(10)}},
	}
	leaf.Preds = parsePreds("a >= 20")
	if !viewMatches(selView, leaf) {
		t.Fatal("a>=20 implies a>=10")
	}
	leaf.Preds = parsePreds("a >= 5")
	if viewMatches(selView, leaf) {
		t.Fatal("a>=5 does not imply a>=10")
	}
	leaf.Preds = parsePreds("a = 15")
	if !viewMatches(selView, leaf) {
		t.Fatal("a=15 implies a>=10")
	}
	leaf.Preds = parsePreds("a BETWEEN 12 AND 30")
	if !viewMatches(selView, leaf) {
		t.Fatal("BETWEEN 12 AND 30 implies a>=10")
	}
	leaf.Preds = parsePreds("a BETWEEN 2 AND 30")
	if viewMatches(selView, leaf) {
		t.Fatal("BETWEEN 2 AND 30 does not imply a>=10")
	}
	// Equality view pred.
	eqView := &catalog.View{
		Name: "v", BaseTable: "T", Columns: []string{"id", "a"},
		Preds: []catalog.SimplePred{{Column: "a", Op: catalog.OpEQ, Value: sqltypes.NewInt(7)}},
	}
	leaf.Preds = parsePreds("a = 7")
	if !viewMatches(eqView, leaf) {
		t.Fatal("a=7 implies a=7")
	}
	leaf.Preds = parsePreds("a = 8")
	if viewMatches(eqView, leaf) {
		t.Fatal("a=8 does not imply a=7")
	}
	// Upper-bound view pred.
	ltView := &catalog.View{
		Name: "v", BaseTable: "T", Columns: []string{"id", "a"},
		Preds: []catalog.SimplePred{{Column: "a", Op: catalog.OpLT, Value: sqltypes.NewInt(100)}},
	}
	leaf.Preds = parsePreds("a < 50")
	if !viewMatches(ltView, leaf) {
		t.Fatal("a<50 implies a<100")
	}
	leaf.Preds = parsePreds("a < 200")
	if viewMatches(ltView, leaf) {
		t.Fatal("a<200 does not imply a<100")
	}
}

// TestHeartbeatGuard: the guard judges the heartbeat its region's word
// publishes — local iff ts > Now − B (strictly: a heartbeat exactly B old goes
// remote) and ts ≥ the timeline floor — and a word without one, or no word,
// goes remote. It keeps nothing between decisions: a later heartbeat is
// judged at the next one, and an older one published after it is refused.
func TestHeartbeatGuard(t *testing.T) {
	now := vclock.Epoch.Add(100 * time.Second)
	ctx := &exec.EvalContext{Now: now}
	var synced, never storage.Word
	synced.Heartbeat(now.Add(-8 * time.Second)) // 8s ago
	for _, c := range []struct {
		name   string
		word   *storage.Word
		bound  time.Duration
		floor  time.Time
		want   int
		judged time.Time
	}{
		{"8s stale within a 10s bound", &synced, 10 * time.Second, time.Time{}, 0, now.Add(-8 * time.Second)},
		{"8s stale beyond a 5s bound", &synced, 5 * time.Second, time.Time{}, 1, now.Add(-8 * time.Second)},
		{"8s stale at exactly an 8s bound", &synced, 8 * time.Second, time.Time{}, 1, now.Add(-8 * time.Second)},
		{"8s stale within a bound 1ns longer", &synced, 8*time.Second + 1, time.Time{}, 0, now.Add(-8 * time.Second)},
		{"unbounded", &synced, time.Duration(math.MaxInt64), time.Time{}, 0, now.Add(-8 * time.Second)},
		{"a floor past the heartbeat", &synced, time.Hour, now.Add(-time.Second), 1, now.Add(-8 * time.Second)},
		{"a floor at the heartbeat", &synced, time.Hour, now.Add(-8 * time.Second), 0, now.Add(-8 * time.Second)},
		{"never synchronized", &never, time.Hour, time.Time{}, 1, time.Time{}},
		{"no word", nil, time.Duration(math.MaxInt64), time.Time{}, 1, time.Time{}},
	} {
		if got, ts := currencyGuard(c.word, c.bound, c.floor)(ctx); got != c.want || !ts.Equal(c.judged) {
			t.Errorf("%s: branch %d judging %v, want %d judging %v", c.name, got, ts, c.want, c.judged)
		}
	}

	var word storage.Word
	sel := currencyGuard(&word, 10*time.Second, time.Time{})
	word.Heartbeat(now.Add(-time.Minute))
	if got, _ := sel(ctx); got != 1 {
		t.Fatal("a minute-old heartbeat beyond a 10s bound should choose remote")
	}
	word.Heartbeat(now.Add(-time.Second))
	if got, ts := sel(ctx); got != 0 || !ts.Equal(now.Add(-time.Second)) {
		t.Fatalf("the next decision should judge the 1s-old heartbeat and choose local, got %d judging %v", got, ts)
	}
	word.Heartbeat(now.Add(-time.Minute))
	if got, ts := sel(ctx); got != 0 || !ts.Equal(now.Add(-time.Second)) {
		t.Fatalf("an older heartbeat must not replace the 1s-old one, got %d judging %v", got, ts)
	}
}

func TestSelectivityHelpers(t *testing.T) {
	stats := catalog.NewTableStats()
	stats.Set(1000, 50, map[string]*catalog.ColumnStats{
		"a": {NDV: 100, Min: sqltypes.NewFloat(0), Max: sqltypes.NewFloat(100)},
	})
	parse := func(where string) sqlparser.Expr {
		sel, _ := sqlparser.ParseSelect("SELECT 1 FROM t WHERE " + where)
		return sel.Where
	}
	if got := selectivity(nil, stats, parse("a = 5")); got != 0.01 {
		t.Fatalf("eq = %v", got)
	}
	if got := selectivity(nil, stats, parse("a <> 5")); got != 0.99 {
		t.Fatalf("ne = %v", got)
	}
	lt := selectivity(nil, stats, parse("a < 50"))
	if lt < 0.4 || lt > 0.6 {
		t.Fatalf("lt = %v", lt)
	}
	in := selectivity(nil, stats, parse("a IN (1, 2, 3)"))
	if in < 0.029 || in > 0.031 {
		t.Fatalf("in = %v", in)
	}
	if got := selectivity(nil, stats, parse("a IS NULL")); got != 0.05 {
		t.Fatalf("isnull = %v", got)
	}
	nb := selectivity(nil, stats, parse("NOT (a = 5)"))
	if nb != 0.99 {
		t.Fatalf("not = %v", nb)
	}
	btw := selectivity(nil, stats, parse("a BETWEEN 25 AND 75"))
	if btw < 0.4 || btw > 0.6 {
		t.Fatalf("between = %v", btw)
	}
}

func TestFlipOp(t *testing.T) {
	cases := map[sqlparser.BinOp]sqlparser.BinOp{
		sqlparser.OpLT: sqlparser.OpGT,
		sqlparser.OpLE: sqlparser.OpGE,
		sqlparser.OpGT: sqlparser.OpLT,
		sqlparser.OpGE: sqlparser.OpLE,
		sqlparser.OpEQ: sqlparser.OpEQ,
	}
	for in, want := range cases {
		if flipOp(in) != want {
			t.Errorf("flip %v", in)
		}
	}
}

func TestTrivialSelectRejectedWithoutFrom(t *testing.T) {
	f := newBackendFixture(t)
	sel, _ := sqlparser.ParseSelect("SELECT 1")
	if _, _, err := f.plan.PlanSelect(sel); err == nil {
		t.Fatal("planner should defer FROM-less selects to the trivial path")
	}
}

func TestLeafFetchSQL(t *testing.T) {
	f := newBackendFixture(t)
	sel, _ := sqlparser.ParseSelect("SELECT B.title FROM Books B WHERE B.isbn = 3 AND B.price > 1")
	q, err := Algebrize(sel, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	sql := sqlparser.SelectSQL(leafFetch(q.Leaves[0]))
	if !strings.HasPrefix(sql, "SELECT B.isbn, B.title, B.price FROM Books B WHERE") {
		t.Fatalf("leaf SQL = %s", sql)
	}
	// It must re-parse.
	if _, err := sqlparser.ParseSelect(sql); err != nil {
		t.Fatalf("leaf SQL does not re-parse: %v", err)
	}
}
