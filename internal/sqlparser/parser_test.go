package sqlparser

import (
	"testing"
	"time"

	"relaxedcc/internal/sqltypes"
)

func mustSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	sel, err := ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

func TestSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT c_name, c_acctbal FROM Customer WHERE c_custkey = 42")
	if len(sel.Items) != 2 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	tn := sel.From[0].(*TableName)
	if tn.Name != "Customer" || tn.Binding() != "Customer" {
		t.Fatalf("from = %+v", tn)
	}
	be := sel.Where.(*BinaryExpr)
	if be.Op != OpEQ {
		t.Fatalf("where op = %v", be.Op)
	}
	if be.Right.(*Literal).Val.Int() != 42 {
		t.Fatal("where literal")
	}
}

func TestSelectStarAndAliases(t *testing.T) {
	sel := mustSelect(t, "SELECT *, C.*, c_acctbal AS bal, c_name nm FROM Customer C")
	if !sel.Items[0].Star || sel.Items[0].StarTable != "" {
		t.Fatal("bare star")
	}
	if !sel.Items[1].Star || sel.Items[1].StarTable != "C" {
		t.Fatal("qualified star")
	}
	if sel.Items[2].Alias != "bal" || sel.Items[3].Alias != "nm" {
		t.Fatal("aliases")
	}
	if sel.From[0].(*TableName).Binding() != "C" {
		t.Fatal("table alias")
	}
}

func TestJoinParsing(t *testing.T) {
	sel := mustSelect(t, `SELECT C.c_name, O.o_totalprice
		FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey
		WHERE O.o_totalprice > 100.5`)
	j := sel.From[0].(*JoinRef)
	if j.Left.(*TableName).Name != "Customer" || j.Right.(*TableName).Name != "Orders" {
		t.Fatalf("join = %+v", j)
	}
	on := j.On.(*BinaryExpr)
	if on.Left.(*ColumnRef).Table != "C" || on.Right.(*ColumnRef).Column != "o_custkey" {
		t.Fatal("on condition")
	}
	if sel.Where.(*BinaryExpr).Right.(*Literal).Val.Float() != 100.5 {
		t.Fatal("float literal")
	}
}

func TestInnerJoinAndCommaJoin(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM A INNER JOIN B ON A.x = B.x")
	if _, ok := sel.From[0].(*JoinRef); !ok {
		t.Fatal("INNER JOIN not parsed as join")
	}
	sel = mustSelect(t, "SELECT * FROM A, B WHERE A.x = B.x")
	if len(sel.From) != 2 {
		t.Fatal("comma join")
	}
}

func TestChainedJoins(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM A JOIN B ON A.x = B.x JOIN C ON B.y = C.y")
	outer := sel.From[0].(*JoinRef)
	inner := outer.Left.(*JoinRef)
	if inner.Left.(*TableName).Name != "A" || outer.Right.(*TableName).Name != "C" {
		t.Fatal("join associativity")
	}
}

func TestGroupByHavingOrderByTop(t *testing.T) {
	sel := mustSelect(t, `SELECT TOP 10 o_custkey, SUM(o_totalprice) AS total
		FROM Orders GROUP BY o_custkey HAVING COUNT(*) > 5
		ORDER BY total DESC, o_custkey`)
	if sel.Top != 10 {
		t.Fatal("TOP")
	}
	if len(sel.GroupBy) != 1 {
		t.Fatal("GROUP BY")
	}
	h := sel.Having.(*BinaryExpr)
	if fn := h.Left.(*FuncExpr); fn.Name != "COUNT" || !fn.Star {
		t.Fatal("HAVING COUNT(*)")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatal("ORDER BY")
	}
	if !sel.Items[1].Expr.(*FuncExpr).IsAggregate() {
		t.Fatal("IsAggregate")
	}
}

func TestBetweenInExists(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM Customer C WHERE c_acctbal BETWEEN 100 AND 200
		AND c_nationkey IN (1, 2, 3)
		AND EXISTS (SELECT 1 FROM Orders O WHERE O.o_custkey = C.c_custkey)
		AND c_name IS NOT NULL`)
	and1 := sel.Where.(*BinaryExpr)
	if and1.Op != OpAnd {
		t.Fatal("top AND")
	}
	if _, ok := and1.Right.(*IsNullExpr); !ok {
		t.Fatal("IS NOT NULL")
	}
	and2 := and1.Left.(*BinaryExpr)
	ex := and2.Right.(*ExistsExpr)
	if ex.Not || ex.Subquery == nil {
		t.Fatal("EXISTS")
	}
	and3 := and2.Left.(*BinaryExpr)
	if in := and3.Right.(*InExpr); len(in.List) != 3 || in.Not {
		t.Fatal("IN list")
	}
	if btw := and3.Left.(*BetweenExpr); btw.Not || btw.Lo.(*Literal).Val.Int() != 100 {
		t.Fatal("BETWEEN")
	}
}

func TestNotVariants(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM T WHERE x NOT BETWEEN 1 AND 2 AND y NOT IN (3) AND NOT (z = 4)")
	and1 := sel.Where.(*BinaryExpr)
	if _, ok := and1.Right.(*NotExpr); !ok {
		t.Fatal("NOT (expr)")
	}
	and2 := and1.Left.(*BinaryExpr)
	if !and2.Right.(*InExpr).Not {
		t.Fatal("NOT IN")
	}
	if !and2.Left.(*BetweenExpr).Not {
		t.Fatal("NOT BETWEEN")
	}
}

func TestInSubquery(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM Books B WHERE B.isbn IN (SELECT S.isbn FROM Sales S)")
	in := sel.Where.(*InExpr)
	if in.Subquery == nil || len(in.List) != 0 {
		t.Fatal("IN subquery")
	}
}

func TestDerivedTable(t *testing.T) {
	sel := mustSelect(t, `SELECT T.isbn FROM (SELECT isbn FROM Books) AS T WHERE T.isbn > 0`)
	sub := sel.From[0].(*SubqueryRef)
	if sub.Alias != "T" || sub.Select == nil {
		t.Fatal("derived table")
	}
	// Alias required.
	if _, err := ParseSelect("SELECT * FROM (SELECT 1)"); err == nil {
		t.Fatal("derived table without alias accepted")
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 + 2 * 3 - 4 / 2")
	// ((1 + (2*3)) - (4/2))
	top := sel.Items[0].Expr.(*BinaryExpr)
	if top.Op != OpSub {
		t.Fatal("top op")
	}
	add := top.Left.(*BinaryExpr)
	if add.Op != OpAdd || add.Right.(*BinaryExpr).Op != OpMul {
		t.Fatal("mul binds tighter")
	}
	if top.Right.(*BinaryExpr).Op != OpDiv {
		t.Fatal("div")
	}
}

func TestNegativeLiteralFolding(t *testing.T) {
	sel := mustSelect(t, "SELECT -5, -2.5, -(1+2)")
	if sel.Items[0].Expr.(*Literal).Val.Int() != -5 {
		t.Fatal("-int")
	}
	if sel.Items[1].Expr.(*Literal).Val.Float() != -2.5 {
		t.Fatal("-float")
	}
	if _, ok := sel.Items[2].Expr.(*NegExpr); !ok {
		t.Fatal("-(expr)")
	}
}

func TestLiterals(t *testing.T) {
	sel := mustSelect(t, "SELECT NULL, TRUE, FALSE, 'o''hare'")
	if !sel.Items[0].Expr.(*Literal).Val.IsNull() {
		t.Fatal("NULL")
	}
	if !sel.Items[1].Expr.(*Literal).Val.Bool() {
		t.Fatal("TRUE")
	}
	if sel.Items[3].Expr.(*Literal).Val.Str() != "o'hare" {
		t.Fatal("escaped quote")
	}
}

// TestCurrencyClauseE1 covers the paper's Figure 2.1 E1: a single bound over
// one consistency class.
func TestCurrencyClauseE1(t *testing.T) {
	sel := mustSelect(t, `SELECT B.title, R.rating FROM Books B JOIN Reviews R ON B.isbn = R.isbn
		CURRENCY 10 MIN ON (B, R)`)
	cc := sel.Currency
	if cc == nil || len(cc.Triples) != 1 {
		t.Fatalf("currency = %+v", cc)
	}
	tr := cc.Triples[0]
	if tr.Bound != 10*time.Minute {
		t.Fatalf("bound = %v", tr.Bound)
	}
	if len(tr.Tables) != 2 || tr.Tables[0] != "B" || tr.Tables[1] != "R" {
		t.Fatalf("tables = %v", tr.Tables)
	}
}

// TestCurrencyClauseE2 covers E2: different bounds, separate classes.
func TestCurrencyClauseE2(t *testing.T) {
	sel := mustSelect(t, `SELECT 1 FROM Books B, Reviews R
		CURRENCY 10 MIN ON (B), 30 MIN ON (R)`)
	cc := sel.Currency
	if len(cc.Triples) != 2 {
		t.Fatalf("triples = %d", len(cc.Triples))
	}
	if cc.Triples[1].Bound != 30*time.Minute || cc.Triples[1].Tables[0] != "R" {
		t.Fatalf("second triple = %+v", cc.Triples[1])
	}
}

// TestCurrencyClauseE3E4 covers grouping columns (BY phrases).
func TestCurrencyClauseE3E4(t *testing.T) {
	sel := mustSelect(t, `SELECT 1 FROM Books B, Reviews R
		CURRENCY 10 MIN ON (B) BY B.isbn, 30 MIN ON (R) BY R.isbn`)
	cc := sel.Currency
	if len(cc.Triples) != 2 {
		t.Fatalf("triples = %d: %+v", len(cc.Triples), cc)
	}
	if len(cc.Triples[0].By) != 1 || cc.Triples[0].By[0].Column != "isbn" || cc.Triples[0].By[0].Table != "B" {
		t.Fatalf("BY = %+v", cc.Triples[0].By)
	}
	// E4 shape: one class, grouped by key.
	sel = mustSelect(t, `SELECT 1 FROM Books B, Reviews R CURRENCY 10 MIN ON (B, R) BY B.isbn`)
	if len(sel.Currency.Triples) != 1 || len(sel.Currency.Triples[0].By) != 1 {
		t.Fatal("E4 shape")
	}
}

func TestCurrencyUnits(t *testing.T) {
	cases := map[string]time.Duration{
		"CURRENCY 500 MS ON (T)":  500 * time.Millisecond,
		"CURRENCY 10 SEC ON (T)":  10 * time.Second,
		"CURRENCY 10 ON (T)":      10 * time.Second, // default unit
		"CURRENCY 2 HOURS ON (T)": 2 * time.Hour,
		"CURRENCY 0 ON (T)":       0,
		"CURRENCY 1.5 MIN ON (T)": 90 * time.Second,
	}
	for clause, want := range cases {
		sel := mustSelect(t, "SELECT 1 FROM T "+clause)
		if got := sel.Currency.Triples[0].Bound; got != want {
			t.Errorf("%s: bound = %v, want %v", clause, got, want)
		}
	}
	if _, err := ParseSelect("SELECT 1 FROM T CURRENCY 10 PARSEC ON (T)"); err == nil {
		t.Fatal("bad unit accepted")
	}
}

// TestCurrencyInSubquery covers the paper's Q3 (Figure 2.2): a currency
// clause inside an EXISTS subquery referencing an outer table.
func TestCurrencyInSubquery(t *testing.T) {
	sel := mustSelect(t, `SELECT B.title FROM Books B JOIN Reviews R ON B.isbn = R.isbn
		WHERE EXISTS (SELECT 1 FROM Sales S WHERE S.isbn = B.isbn CURRENCY 10 MIN ON (S, B))
		CURRENCY 10 MIN ON (B, R)`)
	if sel.Currency == nil {
		t.Fatal("outer currency")
	}
	ex := sel.Where.(*ExistsExpr)
	if ex.Subquery.Currency == nil || len(ex.Subquery.Currency.Triples[0].Tables) != 2 {
		t.Fatal("inner currency")
	}
}

func TestInsertParsing(t *testing.T) {
	stmt, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if ins.Rows[1][1].(*Literal).Val.Str() != "y" {
		t.Fatal("row values")
	}
	// Without column list.
	stmt, err = Parse("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.(*InsertStmt).Columns) != 0 {
		t.Fatal("columns should be empty")
	}
}

func TestUpdateParsing(t *testing.T) {
	stmt, err := Parse("UPDATE t SET a = a + 1, b = 'z' WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*UpdateStmt)
	if len(upd.Set) != 2 || upd.Set[0].Column != "a" || upd.Where == nil {
		t.Fatalf("update = %+v", upd)
	}
}

func TestDeleteParsing(t *testing.T) {
	stmt, err := Parse("DELETE FROM t WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DeleteStmt).Table != "t" {
		t.Fatal("delete")
	}
	stmt, _ = Parse("DELETE FROM t")
	if stmt.(*DeleteStmt).Where != nil {
		t.Fatal("where should be nil")
	}
}

func TestCreateTableParsing(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE Customer (
		c_custkey BIGINT NOT NULL PRIMARY KEY,
		c_name VARCHAR(25),
		c_acctbal DOUBLE,
		c_since TIMESTAMP,
		c_active BOOLEAN)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if len(ct.Columns) != 5 {
		t.Fatalf("columns = %d", len(ct.Columns))
	}
	c0 := ct.Columns[0]
	if !c0.PrimaryKey || !c0.NotNull || c0.Type != sqltypes.KindInt {
		t.Fatalf("c0 = %+v", c0)
	}
	if ct.Columns[3].Type != sqltypes.KindTime || ct.Columns[4].Type != sqltypes.KindBool {
		t.Fatal("types")
	}
	// Table-level PK.
	stmt, err = Parse("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))")
	if err != nil {
		t.Fatal(err)
	}
	if pk := stmt.(*CreateTableStmt).PrimaryKey; len(pk) != 2 || pk[1] != "b" {
		t.Fatal("table-level PK")
	}
}

func TestCreateIndexParsing(t *testing.T) {
	stmt, err := Parse("CREATE UNIQUE CLUSTERED INDEX ix ON t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndexStmt)
	if !ci.Unique || !ci.Clustered || len(ci.Columns) != 2 {
		t.Fatalf("index = %+v", ci)
	}
	stmt, _ = Parse("CREATE INDEX ix2 ON t (a)")
	if stmt.(*CreateIndexStmt).Unique {
		t.Fatal("unique default")
	}
}

func TestTimeOrderedBrackets(t *testing.T) {
	if stmt, err := Parse("BEGIN TIMEORDERED"); err != nil {
		t.Fatal(err)
	} else if _, ok := stmt.(*BeginTimeOrderedStmt); !ok {
		t.Fatal("begin")
	}
	if stmt, err := Parse("END TIMEORDERED"); err != nil {
		t.Fatal(err)
	} else if _, ok := stmt.(*EndTimeOrderedStmt); !ok {
		t.Fatal("end")
	}
}

func TestGetdateFunction(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 FROM Heartbeat_R WHERE TimeStamp > GETDATE() - 10")
	cmp := sel.Where.(*BinaryExpr)
	sub := cmp.Right.(*BinaryExpr)
	if fn := sub.Left.(*FuncExpr); fn.Name != "GETDATE" || len(fn.Args) != 0 {
		t.Fatal("GETDATE()")
	}
}

// TestRoundTrip verifies that SelectSQL output re-parses to the same SQL.
func TestRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT c_name FROM Customer WHERE c_custkey = 42",
		"SELECT C.c_name, O.o_totalprice FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey WHERE O.o_totalprice > 100",
		"SELECT TOP 5 o_custkey, SUM(o_totalprice) AS total FROM Orders GROUP BY o_custkey HAVING COUNT(*) > 2 ORDER BY total DESC",
		"SELECT * FROM Books B, Reviews R CURRENCY 10 MIN ON (B, R)",
		"SELECT 1 FROM T WHERE a BETWEEN 1 AND 2 AND b IN (1, 2) AND c IS NULL",
		"SELECT DISTINCT x FROM T WHERE NOT EXISTS (SELECT 1 FROM U WHERE U.x = T.x)",
		"SELECT T.a FROM (SELECT a FROM U CURRENCY 5 SEC ON (U)) T",
	}
	for _, q := range queries {
		sel1 := mustSelect(t, q)
		sql1 := SelectSQL(sel1)
		sel2 := mustSelect(t, sql1)
		sql2 := SelectSQL(sel2)
		if sql1 != sql2 {
			t.Errorf("round trip diverged:\n  %s\n  %s", sql1, sql2)
		}
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		"SELECT 'unterminated",
		"SELECT $ FROM t",
		"SELECT # FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("lex %q: expected error", q)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FOO BAR",
		"SELECT FROM",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t extra garbage ON",
		"SELECT * FROM t CURRENCY ON (t)",
		"SELECT * FROM t CURRENCY 10 MIN",
		"SELECT * FROM t CURRENCY 10 MIN ON ()",
		"INSERT INTO t",
		"UPDATE t",
		"DELETE t",
		"CREATE VIEW v",
		"CREATE UNIQUE TABLE t (a INT)",
		"CREATE TABLE t (a FANCYTYPE)",
		"BEGIN TRANSACTION",
		"SELECT a NOT 5 FROM t",
		"SELECT TOP x FROM t",
		"SELECT a FROM t WHERE b = $x", // no $name parameters: literals are the slots
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("parse %q: expected error", q)
		}
	}
}

func TestCommentsAndSemicolon(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 -- trailing comment\nFROM T;")
	if len(sel.From) != 1 {
		t.Fatal("comment handling")
	}
}

func TestNotEqualsVariants(t *testing.T) {
	for _, q := range []string{"SELECT * FROM t WHERE a <> 1", "SELECT * FROM t WHERE a != 1"} {
		sel := mustSelect(t, q)
		if sel.Where.(*BinaryExpr).Op != OpNE {
			t.Errorf("%s: op", q)
		}
	}
}
