package exec

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

var testNow = time.Date(2004, 6, 13, 12, 0, 0, 0, time.UTC)

func ctx() *EvalContext { return &EvalContext{Now: testNow} }

func intv(i int64) sqltypes.Value     { return sqltypes.NewInt(i) }
func strv(s string) sqltypes.Value    { return sqltypes.NewString(s) }
func floatv(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }

// testSchema: t(id INT, name STRING, bal FLOAT)
func testSchema(binding string) *Schema {
	return NewSchema(
		Col{Binding: binding, Name: "id", Kind: sqltypes.KindInt},
		Col{Binding: binding, Name: "name", Kind: sqltypes.KindString},
		Col{Binding: binding, Name: "bal", Kind: sqltypes.KindFloat},
	)
}

func testRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{intv(int64(i + 1)), strv(fmt.Sprint((i + 1) % 3)), floatv(float64(i + 1))}
	}
	return rows
}

func compile(t *testing.T, sql string, schema *Schema) Compiled {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT 1 FROM x WHERE " + sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	c, err := Compile(sel.Where, schema)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	return c
}

// pred compiles a predicate as the planner does: the typed kernel for its
// batch form when it has one.
func pred(t *testing.T, sql string, schema *Schema) *Pred {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT 1 FROM x WHERE " + sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := CompilePred(sel.Where, schema)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	return p
}

// lifted compiles a predicate whose batch form is its row form lifted, as
// CompilePred makes it for a shape no kernel takes.
func lifted(t *testing.T, sql string, schema *Schema) *Pred {
	t.Helper()
	row := compile(t, sql, schema)
	return &Pred{Row: row, batch: lift(row)}
}

func compileItem(t *testing.T, sql string, schema *Schema) Expr {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT " + sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	e, err := CompileExpr(sel.Items[0].Expr, schema)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	return e
}

func drain(t *testing.T, op Operator) []sqltypes.Row {
	t.Helper()
	res, err := Run(op, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func TestSchemaLookup(t *testing.T) {
	s := Concat(testSchema("A"), testSchema("B"))
	if s.Lookup("A", "id") != 0 || s.Lookup("B", "id") != 3 {
		t.Fatal("qualified lookup")
	}
	if s.Lookup("", "id") != -2 {
		t.Fatal("ambiguous lookup should return -2")
	}
	if s.Lookup("", "nope") != -1 {
		t.Fatal("missing lookup")
	}
	if s.Lookup("A", "ID") != 0 {
		t.Fatal("case-insensitive column names")
	}
	if i, err := s.Resolve("B", "bal"); i != 5 || err != nil {
		t.Fatalf("Resolve(B.bal) = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "id"); err == nil || err.Error() != ErrAmbiguous("id").Error() {
		t.Fatalf("ambiguous Resolve: %v", err)
	}
	if _, err := s.Resolve("A", "nope"); err == nil || err.Error() != ErrNoColumn("A", "nope").Error() {
		t.Fatalf("missing Resolve: %v", err)
	}
	if got := testSchema("T").String(); got != "(T.id, T.name, T.bal)" {
		t.Fatalf("String = %q", got)
	}
	if names := testSchema("T").ColumnNames(); names[2] != "bal" {
		t.Fatal("ColumnNames")
	}
}

func TestExprArithmeticAndComparison(t *testing.T) {
	s := testSchema("t")
	row := sqltypes.Row{intv(10), strv("x"), floatv(2.5)}
	cases := []struct {
		sql  string
		want sqltypes.Value
	}{
		{"id + 5", intv(15)},
		{"id - 5", intv(5)},
		{"id * 2", intv(20)},
		{"id / 4", floatv(2.5)},
		{"bal * 2", floatv(5)},
		{"id + bal", floatv(12.5)},
		{"-id", intv(-10)},
	}
	for _, c := range cases {
		got, err := compileItem(t, c.sql, s).Eval(ctx(), row)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
	preds := []struct {
		sql  string
		want bool
	}{
		{"id = 10", true}, {"id <> 10", false}, {"id < 11", true},
		{"id <= 10", true}, {"id > 10", false}, {"id >= 11", false},
		{"name = 'x'", true}, {"name = 'y'", false},
		{"id BETWEEN 5 AND 15", true}, {"id NOT BETWEEN 5 AND 15", false},
		{"id IN (1, 10)", true}, {"id NOT IN (1, 10)", false},
		{"id IN (1, 2)", false},
		{"name IS NULL", false}, {"name IS NOT NULL", true},
		{"id = 10 AND name = 'x'", true},
		{"id = 9 OR name = 'x'", true},
		{"NOT (id = 10)", false},
		{"bal > 2 AND bal < 3", true},
	}
	for _, c := range preds {
		got, err := PredicateTrue(compile(t, c.sql, s), ctx(), row)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestExprNullSemantics(t *testing.T) {
	s := testSchema("t")
	row := sqltypes.Row{sqltypes.Null, sqltypes.Null, floatv(1)}
	// NULL comparisons are not TRUE.
	for _, sql := range []string{"id = 1", "id <> 1", "id < 1", "id IN (1)", "id BETWEEN 0 AND 2"} {
		got, err := PredicateTrue(compile(t, sql, s), ctx(), row)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("%s on NULL should not be TRUE", sql)
		}
	}
	ok, _ := PredicateTrue(compile(t, "id IS NULL", s), ctx(), row)
	if !ok {
		t.Fatal("IS NULL")
	}
	// FALSE AND NULL = FALSE (short circuit); TRUE OR NULL = TRUE.
	ok, _ = PredicateTrue(compile(t, "bal = 2 AND id = 1", s), ctx(), row)
	if ok {
		t.Fatal("FALSE AND NULL")
	}
	ok, _ = PredicateTrue(compile(t, "bal = 1 OR id = 1", s), ctx(), row)
	if !ok {
		t.Fatal("TRUE OR NULL")
	}
	// x IN (1, NULL) with x=2 is NULL, not FALSE -> NOT IN also not TRUE.
	row2 := sqltypes.Row{intv(2), strv(""), floatv(0)}
	ok, _ = PredicateTrue(compile(t, "id IN (1, NULL)", s), ctx(), row2)
	if ok {
		t.Fatal("IN with NULL member")
	}
	ok, _ = PredicateTrue(compile(t, "id NOT IN (1, NULL)", s), ctx(), row2)
	if ok {
		t.Fatal("NOT IN with NULL member must be unknown")
	}
}

func TestExprErrors(t *testing.T) {
	s := testSchema("t")
	row := sqltypes.Row{intv(1), strv("x"), floatv(1)}
	if _, err := compileItem(t, "id / 0", s).Eval(ctx(), row); err == nil {
		t.Fatal("division by zero should fail")
	}
	// Compile-time errors: kinds (Bind), then names and shapes.
	for _, src := range []string{"name + 1", "name = 1", "-name", "ABS(name)", "id BETWEEN 'a' AND 2", "id IN (1, 'a')"} {
		sel, err := sqlparser.ParseSelect("SELECT " + src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(sel.Items[0].Expr, s); err == nil {
			t.Fatalf("%s should fail at compile", src)
		}
	}
	sel, _ := sqlparser.ParseSelect("SELECT nope FROM t")
	if _, err := Compile(sel.Items[0].Expr, s); err == nil {
		t.Fatal("unknown column should fail at compile")
	}
	sel, _ = sqlparser.ParseSelect("SELECT SUM(id) FROM t")
	if _, err := Compile(sel.Items[0].Expr, s); err == nil {
		t.Fatal("aggregate outside Aggregate operator")
	}
	sel, _ = sqlparser.ParseSelect("SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u)")
	if _, err := Compile(sel.Where, s); err == nil {
		t.Fatal("EXISTS must be rejected by Compile")
	}
}

func TestGetdate(t *testing.T) {
	s := testSchema("t")
	got, err := compileItem(t, "GETDATE()", s).Eval(ctx(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time().Equal(testNow) {
		t.Fatal("GETDATE")
	}
	// Timestamp arithmetic: GETDATE() - 10 subtracts seconds.
	got, err = compileItem(t, "GETDATE() - 10", s).Eval(ctx(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time().Equal(testNow.Add(-10 * time.Second)) {
		t.Fatalf("GETDATE()-10 = %v", got)
	}
}

func TestValuesFilterProject(t *testing.T) {
	s := testSchema("t")
	src := NewValues(s, testRows(10))
	f := &Filter{Child: src, Pred: pred(t, "id > 7", s)}
	outSchema := NewSchema(Col{Name: "double", Kind: sqltypes.KindInt})
	p := &Project{Child: f, Exprs: []Expr{compileItem(t, "id * 2", s)}, Out: outSchema}
	rows := drain(t, p)
	if len(rows) != 3 || rows[0][0].Int() != 16 || rows[2][0].Int() != 20 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoinInner(t *testing.T) {
	left := NewValues(testSchema("L"), testRows(5))
	right := NewValues(testSchema("R"), testRows(3))
	join := NewHashJoin(left, right, []int{0}, []int{0}, nil, JoinInner)
	rows := drain(t, join)
	if len(rows) != 3 {
		t.Fatalf("inner join rows = %d", len(rows))
	}
	if len(rows[0]) != 6 {
		t.Fatal("join output width")
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	mk := func() (Operator, Operator) {
		return NewValues(testSchema("L"), testRows(5)), NewValues(testSchema("R"), testRows(3))
	}
	left, right := mk()
	semi := NewHashJoin(left, right, []int{0}, []int{0}, nil, JoinSemi)
	if rows := drain(t, semi); len(rows) != 3 || len(rows[0]) != 3 {
		t.Fatalf("semi join rows = %v", rows)
	}
	left, right = mk()
	anti := NewHashJoin(left, right, []int{0}, []int{0}, nil, JoinAnti)
	rows := drain(t, anti)
	if len(rows) != 2 || rows[0][0].Int() != 4 {
		t.Fatalf("anti join rows = %v", rows)
	}
}

func TestHashJoinResidualAndNullKeys(t *testing.T) {
	lrows := testRows(4)
	lrows[2][0] = sqltypes.Null // NULL key must not join
	left := NewValues(testSchema("L"), lrows)
	right := NewValues(testSchema("R"), testRows(4))
	j := NewHashJoin(left, right, []int{0}, []int{0}, nil, JoinInner)
	resSchema := j.Schema()
	j.Residual = compile(t, "L.bal + R.bal > 3", resSchema)
	rows := drain(t, j)
	// id 1 (1+1=2 no), id 2 (4 yes), id 3 NULL key, id 4 (8 yes).
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func storageTable(t *testing.T) *storage.Table {
	t.Helper()
	c := catalog.New()
	def := &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt, NotNull: true},
			{Name: "name", Type: sqltypes.KindString},
			{Name: "bal", Type: sqltypes.KindFloat},
		},
		PrimaryKey: []string{"id"},
	}
	if err := c.AddTable(def); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&catalog.Index{Name: "ix_bal", Table: "t", Columns: []string{"bal"}}); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(c.Table("t"))
	for _, r := range testRows(100) {
		if err := tbl.Replace(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestScanFullAndRange(t *testing.T) {
	tbl := storageTable(t)
	s := NewScan(tbl, testSchema("t"))
	rows := drain(t, s)
	if len(rows) != 100 || s.RowsScanned != 100 {
		t.Fatalf("full scan = %d rows, scanned %d", len(rows), s.RowsScanned)
	}
	// Index range scan on secondary index.
	s2 := NewScan(tbl, testSchema("t"))
	s2.Index = "ix_bal"
	s2.Lo = storage.Bound{Vals: sqltypes.Row{floatv(10)}, Inclusive: true}
	s2.Hi = storage.Bound{Vals: sqltypes.Row{floatv(20)}, Inclusive: true}
	rows = drain(t, s2)
	if len(rows) != 11 {
		t.Fatalf("range scan = %d rows", len(rows))
	}
	// Residual filter counts scanned vs returned.
	s3 := NewScan(tbl, testSchema("t"))
	s3.Filter = pred(t, "name = '0'", testSchema("t"))
	rows = drain(t, s3)
	if len(rows) != 33 || s3.RowsScanned != 100 {
		t.Fatalf("filtered scan = %d rows, scanned %d", len(rows), s3.RowsScanned)
	}
}

// TestGatherOverScanCopiesItsColumns: a gather Project right above a scan
// has the scan copy only the columns it gathers, run after run — a column
// gathered twice is copied once, and batches that span several leaf windows
// stay aligned — and the scan run alone afterwards returns whole rows again;
// Exists reports a row without copying any.
func TestGatherOverScanCopiesItsColumns(t *testing.T) {
	const n = 3000
	tbl := parallelTable(t, n)
	out := NewSchema(Col{Binding: "t", Name: "bal"}, Col{Binding: "t", Name: "id"}, Col{Binding: "t", Name: "id"})
	byID := func(rows []sqltypes.Row, id int) []sqltypes.Row {
		sort.Slice(rows, func(a, b int) bool { return rows[a][id].Int() < rows[b][id].Int() })
		return rows
	}
	for _, scan := range []Operator{NewScan(tbl, testSchema("t")), NewParallelScan(tbl, testSchema("t"))} {
		p := &Project{Child: scan, Exprs: []Expr{{Col: 2}, {Col: 0}, {Col: 0}}, Out: out}
		for run := 0; run < 2; run++ {
			rows := byID(drain(t, p), 1)
			if len(rows) != n {
				t.Fatalf("%T: %d rows", scan, len(rows))
			}
			for i, r := range rows {
				if len(r) != 3 || r[0].Float() != float64(i+1) || r[1].Int() != int64(i+1) || r[2].Int() != int64(i+1) {
					t.Fatalf("%T run %d: row %d = %v", scan, run, i, r)
				}
			}
		}
		rows := byID(drain(t, scan), 0)
		for i, r := range rows {
			if r[0].Int() != int64(i+1) || r[1].Str() != fmt.Sprint((i+1)%3) || r[2].Float() != float64(i+1) {
				t.Fatalf("%T alone: row %d = %v", scan, i, r)
			}
		}
		if len(rows) != n {
			t.Fatalf("%T alone: %d rows", scan, len(rows))
		}
	}
	s := NewScan(tbl, testSchema("t"))
	s.Index = "pk_t"
	for _, key := range []int64{7, 7000} {
		s.Lo = storage.Bound{Vals: sqltypes.Row{intv(key)}, Inclusive: true}
		s.Hi = s.Lo
		want := 0
		if key == 7 {
			want = 1
		}
		if rows := drain(t, s); len(rows) != want {
			t.Fatalf("point range %d: %d rows", key, len(rows))
		}
	}
}

func TestIndexLoopJoin(t *testing.T) {
	tbl := storageTable(t)
	outer := NewValues(testSchema("L"), testRows(5))
	inner := testSchema("R")
	j := NewIndexLoopJoin(outer, tbl, "pk_t", inner, []int{0}, nil, JoinInner)
	rows := drain(t, j)
	if len(rows) != 5 || j.InnerLookups != 5 {
		t.Fatalf("rows = %d lookups = %d", len(rows), j.InnerLookups)
	}
	if len(rows[0]) != 6 {
		t.Fatal("output width")
	}
	// Semi variant over outer rows without a partner: the table holds ids
	// 1..100.
	lonely := testRows(5)
	for i, r := range lonely {
		r[0] = intv(int64(1000 * (i + 1)))
	}
	j2 := NewIndexLoopJoin(NewValues(testSchema("L"), lonely), tbl, "pk_t", inner, []int{0}, nil, JoinSemi)
	if rows := drain(t, j2); len(rows) != 0 || j2.InnerLookups != 5 {
		t.Fatalf("semi with no matches = %v after %d lookups", rows, j2.InnerLookups)
	}
}

func TestSortLimitDistinct(t *testing.T) {
	s := testSchema("t")
	src := NewValues(s, testRows(10))
	sorted := &Sort{Child: src, Keys: []Expr{compileItem(t, "bal", s)}, Desc: []bool{true}}
	top := &Limit{Child: sorted, N: 3}
	rows := drain(t, top)
	if len(rows) != 3 || rows[0][2].Float() != 10 || rows[2][2].Float() != 8 {
		t.Fatalf("top3 = %v", rows)
	}
	// Distinct on name (3 distinct values among 10 rows).
	proj := &Project{
		Child: NewValues(s, testRows(10)),
		Exprs: []Expr{compileItem(t, "name", s)},
		Out:   NewSchema(Col{Name: "name", Kind: sqltypes.KindString}),
	}
	d := &Distinct{Child: proj}
	if rows := drain(t, d); len(rows) != 3 {
		t.Fatalf("distinct = %v", rows)
	}
}

func TestSortStableMultiKey(t *testing.T) {
	s := testSchema("t")
	rows := []sqltypes.Row{
		{intv(1), strv("b"), floatv(2)},
		{intv(2), strv("a"), floatv(2)},
		{intv(3), strv("a"), floatv(1)},
	}
	sorted := &Sort{
		Child: NewValues(s, rows),
		Keys:  []Expr{compileItem(t, "bal", s), compileItem(t, "name", s)},
		Desc:  []bool{false, false},
	}
	got := drain(t, sorted)
	if got[0][0].Int() != 3 || got[1][0].Int() != 2 || got[2][0].Int() != 1 {
		t.Fatalf("order = %v", got)
	}
}

func TestAggregate(t *testing.T) {
	s := testSchema("t")
	agg := &Aggregate{
		Child:     NewValues(s, testRows(10)),
		GroupCols: []int{1},
		Aggs: []AggSpec{
			{Func: "COUNT", Star: true},
			{Func: "SUM", Arg: compileItem(t, "bal", s)},
			{Func: "AVG", Arg: compileItem(t, "bal", s)},
			{Func: "MIN", Arg: compileItem(t, "id", s)},
			{Func: "MAX", Arg: compileItem(t, "id", s)},
		},
		Out: NewSchema(
			Col{Name: "name", Kind: sqltypes.KindString},
			Col{Name: "cnt", Kind: sqltypes.KindInt},
			Col{Name: "total", Kind: sqltypes.KindFloat},
			Col{Name: "avg", Kind: sqltypes.KindFloat},
			Col{Name: "mn", Kind: sqltypes.KindInt},
			Col{Name: "mx", Kind: sqltypes.KindInt},
		),
	}
	rows := drain(t, agg)
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Group "1": ids 1,4,7,10 -> count 4, sum bal 22, min 1, max 10.
	var g1 sqltypes.Row
	for _, r := range rows {
		if r[0].Str() == "1" {
			g1 = r
		}
	}
	if g1[1].Int() != 4 || g1[2].Float() != 22 || g1[4].Int() != 1 || g1[5].Int() != 10 {
		t.Fatalf("group 1 = %v", g1)
	}
	if g1[3].Float() != 5.5 {
		t.Fatalf("avg = %v", g1[3])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	s := testSchema("t")
	agg := &Aggregate{
		Child: NewValues(s, nil),
		Aggs: []AggSpec{
			{Func: "COUNT", Star: true},
			{Func: "SUM", Arg: compileItem(t, "bal", s)},
		},
		Out: NewSchema(Col{Name: "cnt", Kind: sqltypes.KindInt}, Col{Name: "sum", Kind: sqltypes.KindFloat}),
	}
	rows := drain(t, agg)
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v", rows)
	}
	// With GROUP BY, empty input yields no rows.
	agg2 := &Aggregate{
		Child:     NewValues(s, nil),
		GroupCols: []int{1},
		Aggs:      []AggSpec{{Func: "COUNT", Star: true}},
		Out:       NewSchema(Col{Name: "name"}, Col{Name: "cnt"}),
	}
	if rows := drain(t, agg2); len(rows) != 0 {
		t.Fatalf("grouped empty agg = %v", rows)
	}
}

func TestAggregateIntSums(t *testing.T) {
	s := testSchema("t")
	agg := &Aggregate{
		Child: NewValues(s, testRows(3)),
		Aggs:  []AggSpec{{Func: "SUM", Arg: compileItem(t, "id", s)}},
		Out:   NewSchema(Col{Name: "s", Kind: sqltypes.KindInt}),
	}
	rows := drain(t, agg)
	if rows[0][0].Kind() != sqltypes.KindInt || rows[0][0].Int() != 6 {
		t.Fatalf("int sum = %v", rows[0][0])
	}
}

func TestSwitchUnionSelectsOneBranch(t *testing.T) {
	s := testSchema("t")
	localOpened, remoteOpened := 0, 0
	local := &probeOp{Values: NewValues(s, testRows(2)), opened: &localOpened}
	remote := &probeOp{Values: NewValues(s, testRows(5)), opened: &remoteOpened}
	su := &SwitchUnion{
		Children: []Operator{local, remote},
		Selector: func(*EvalContext) (int, time.Time) { return 0, time.Time{} },
	}
	rows := drain(t, su)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if localOpened != 1 || remoteOpened != 0 {
		t.Fatalf("opened local=%d remote=%d; unchosen branch must stay untouched", localOpened, remoteOpened)
	}
	// Switch to branch 1.
	su2 := &SwitchUnion{
		Children: []Operator{local, remote},
		Selector: func(*EvalContext) (int, time.Time) { return 1, time.Time{} },
	}
	if rows := drain(t, su2); len(rows) != 5 {
		t.Fatalf("branch 1 rows = %d", len(rows))
	}
}

func TestSwitchUnionErrors(t *testing.T) {
	s := testSchema("t")
	su := &SwitchUnion{
		Children: []Operator{NewValues(s, nil)},
		Selector: func(*EvalContext) (int, time.Time) { return 7, time.Time{} },
	}
	if err := su.Open(ctx()); err == nil {
		t.Fatal("out-of-range selector accepted")
	}
	if err := su.Close(); err != nil {
		t.Fatal("Close after failed Open must be safe")
	}
}

type probeOp struct {
	*Values
	opened *int
}

func (p *probeOp) Open(ctx *EvalContext) error {
	*p.opened++
	return p.Values.Open(ctx)
}

func TestRemoteOperator(t *testing.T) {
	s := testSchema("t")
	calls := 0
	r := &Remote{
		SQL: "SELECT ...",
		Out: s,
		Fetch: func(*EvalContext) ([]sqltypes.Row, error) {
			calls++
			return testRows(4), nil
		},
	}
	if rows := drain(t, r); len(rows) != 4 || calls != 1 {
		t.Fatalf("remote rows=%d calls=%d", len(rows), calls)
	}
	rErr := &Remote{Out: s, Fetch: func(*EvalContext) ([]sqltypes.Row, error) {
		return nil, errors.New("link down")
	}}
	if _, err := Run(rErr, ctx(), 0); err == nil {
		t.Fatal("remote error not propagated")
	}
}

func TestRunPhases(t *testing.T) {
	s := testSchema("t")
	res, err := Run(NewValues(s, testRows(3)), ctx(), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Setup != 5*time.Millisecond {
		t.Fatal("setup passthrough")
	}
	if res.Phases.Total() < res.Phases.Setup {
		t.Fatal("total")
	}
}

// switchUnions collects every SwitchUnion of the tree under op, walking it
// with VisitChildren.
func switchUnions(op Operator) []*SwitchUnion {
	var out []*SwitchUnion
	if su, ok := op.(*SwitchUnion); ok {
		out = append(out, su)
	}
	VisitChildren(op, func(c *Operator) { out = append(out, switchUnions(*c)...) })
	return out
}

func TestCollectSwitchUnions(t *testing.T) {
	s := testSchema("t")
	su := &SwitchUnion{
		Children: []Operator{NewValues(s, nil), NewValues(s, nil)},
		Selector: func(*EvalContext) (int, time.Time) { return 0, time.Time{} },
	}
	root := &Filter{Child: su, Pred: pred(t, "id > 0", s)}
	if got := switchUnions(root); len(got) != 1 || got[0] != su {
		t.Fatal("switchUnions")
	}
}
