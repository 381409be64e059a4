package sqlparser

import (
	"strings"
	"testing"
	"time"
)

// TestSQLRendering exercises every Expr.SQL / TableRef.SQL branch by
// rendering parsed statements back to text and re-parsing them.
func TestSQLRendering(t *testing.T) {
	queries := []string{
		"SELECT a FROM t WHERE x = 1 OR y = 2 OR z = 3",
		"SELECT a FROM t WHERE NOT (x = 1) AND -(y) > 0",
		"SELECT a FROM t WHERE x NOT BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE x NOT IN (1, 2)",
		"SELECT a FROM t WHERE x IN (SELECT y FROM u)",
		"SELECT a FROM t WHERE x NOT IN (SELECT y FROM u WHERE u.z = t.a)",
		"SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)",
		"SELECT a FROM t WHERE x IS NOT NULL AND y IS NULL",
		"SELECT COUNT(*), SUM(x), GETDATE() FROM t",
		"SELECT a FROM t1 JOIN t2 ON t1.x = t2.x JOIN t3 ON t2.y = t3.y",
		"SELECT a FROM (SELECT a FROM u) AS d WHERE d.a > 0",
		"SELECT t.* FROM t",
		"SELECT a FROM t CURRENCY 1.5 MIN ON (t) BY t.a, 500 MS ON (t)",
		"SELECT a b FROM t c",
	}
	for _, q := range queries {
		sel, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rendered := SelectSQL(sel)
		sel2, err := ParseSelect(rendered)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", rendered, q, err)
		}
		if again := SelectSQL(sel2); again != rendered {
			t.Fatalf("unstable rendering:\n  %s\n  %s", rendered, again)
		}
	}
}

func TestFormatBoundUnits(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "0 SEC",
		2 * time.Hour:           "2 HOUR",
		10 * time.Minute:        "10 MIN",
		45 * time.Second:        "45 SEC",
		1500 * time.Millisecond: "1500 MS",
	}
	for d, want := range cases {
		if got := formatBound(d); got != want {
			t.Errorf("formatBound(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestCurrencyClauseSQLWithBy(t *testing.T) {
	sel, err := ParseSelect("SELECT 1 FROM B, R CURRENCY 10 MIN ON (B, R) BY R.isbn, B.isbn")
	if err != nil {
		t.Fatal(err)
	}
	got := sel.Currency.SQL()
	if !strings.Contains(got, "BY R.isbn, B.isbn") {
		t.Fatalf("clause SQL = %q", got)
	}
}

func TestBinOpStringAll(t *testing.T) {
	ops := map[BinOp]string{
		OpAnd: "AND", OpOr: "OR", OpEQ: "=", OpNE: "<>", OpLT: "<",
		OpLE: "<=", OpGT: ">", OpGE: ">=", OpAdd: "+", OpSub: "-",
		OpMul: "*", OpDiv: "/",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v", op)
		}
	}
	if !strings.Contains(BinOp(99).String(), "BinOp") {
		t.Fatal("unknown op")
	}
}

func TestTokenString(t *testing.T) {
	toks, err := lex("abc 'str' ,")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].String() != `"abc"` {
		t.Fatalf("ident = %s", toks[0])
	}
	if toks[1].String() != `string "str"` {
		t.Fatalf("string = %s", toks[1])
	}
	if toks[len(toks)-1].String() != "end of input" {
		t.Fatalf("eof = %s", toks[len(toks)-1])
	}
}

func TestIsAggregateNames(t *testing.T) {
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		if !(&FuncExpr{Name: name}).IsAggregate() {
			t.Errorf("%s should be aggregate", name)
		}
	}
	if (&FuncExpr{Name: "GETDATE"}).IsAggregate() {
		t.Fatal("GETDATE is not an aggregate")
	}
}
