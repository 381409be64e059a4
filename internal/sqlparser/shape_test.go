package sqlparser

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"relaxedcc/internal/sqltypes"
)

// literals returns the statement's slot literals by slot (index 0 unused),
// descending into subqueries.
func literals(top Statement) map[int]*Literal {
	out := map[int]*Literal{}
	var expr func(Expr)
	var stmt func(*SelectStmt)
	var ref func(TableRef)
	expr = func(e Expr) {
		switch e := e.(type) {
		case *Literal:
			if e.Slot > 0 {
				out[e.Slot] = e
			}
		case *BinaryExpr:
			expr(e.Left)
			expr(e.Right)
		case *NotExpr:
			expr(e.Inner)
		case *NegExpr:
			expr(e.Inner)
		case *BetweenExpr:
			expr(e.Expr)
			expr(e.Lo)
			expr(e.Hi)
		case *InExpr:
			expr(e.Expr)
			for _, it := range e.List {
				expr(it)
			}
			if e.Subquery != nil {
				stmt(e.Subquery)
			}
		case *ExistsExpr:
			stmt(e.Subquery)
		case *IsNullExpr:
			expr(e.Expr)
		case *FuncExpr:
			for _, a := range e.Args {
				expr(a)
			}
		}
	}
	ref = func(tr TableRef) {
		switch tr := tr.(type) {
		case *SubqueryRef:
			stmt(tr.Select)
		case *JoinRef:
			ref(tr.Left)
			ref(tr.Right)
			expr(tr.On)
		}
	}
	stmt = func(s *SelectStmt) {
		for _, it := range s.Items {
			if !it.Star {
				expr(it.Expr)
			}
		}
		for _, tr := range s.From {
			ref(tr)
		}
		if s.Where != nil {
			expr(s.Where)
		}
		for _, g := range s.GroupBy {
			expr(g)
		}
		if s.Having != nil {
			expr(s.Having)
		}
		for _, o := range s.OrderBy {
			expr(o.Expr)
		}
	}
	switch top := top.(type) {
	case *SelectStmt:
		stmt(top)
	case *InsertStmt:
		for _, row := range top.Rows {
			for _, e := range row {
				expr(e)
			}
		}
	case *UpdateStmt:
		for _, a := range top.Set {
			expr(a.Value)
		}
		if top.Where != nil {
			expr(top.Where)
		}
	case *DeleteStmt:
		if top.Where != nil {
			expr(top.Where)
		}
	}
	return out
}

// sameValue is equality of kind and of value to the bit.
func sameValue(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqltypes.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Compare(b) == 0
}

// checkSlots holds a parsed text to what a statement's template rests on: the
// scanner's token values, bound, are the parse's literal values slot by slot.
// It returns them.
func checkSlots(t *testing.T, text string, stmt Statement, slots Slots) []sqltypes.Value {
	t.Helper()
	_, vals, ok := Scan(text, nil, nil)
	if !ok {
		t.Fatalf("%q parses but does not scan", text)
	}
	if len(vals) != slots.N {
		t.Fatalf("%q: scanned %d literal tokens, parsed %d", text, len(vals), slots.N)
	}
	if slots.N > 64 {
		return nil
	}
	lits := literals(stmt)
	slots.Bind(vals)
	for slot := 1; slot <= len(vals); slot++ {
		lit, isLit := lits[slot], slots.Lits>>(slot-1)&1 != 0
		if (lit != nil) != isLit {
			t.Fatalf("%q: slot %d literal %v, Slots.Lits says %v", text, slot, lit != nil, isLit)
		}
		if lit != nil && !sameValue(lit.Val, vals[slot-1]) {
			t.Fatalf("%q: slot %d parsed %v, scanned and bound %v", text, slot, lit.Val, vals[slot-1])
		}
	}
	return vals
}

// checkShape holds a text that parses as a SELECT to what the statement
// cache rests on: its slots (checkSlots); the canonical text spliced from the
// statement's pieces and the bound token values is SelectSQL's; and the
// canonical text is a fixpoint of parse and print, with the same skeleton
// property one round later.
func checkShape(t *testing.T, text string, sel *SelectStmt) {
	t.Helper()
	canon := SelectSQL(sel)
	skel, _, _ := Scan(text, nil, nil)
	if vals := checkSlots(t, text, sel, sel.Slots); vals != nil {
		if got := SelectPieces(sel).Splice(vals); got != canon {
			t.Fatalf("%q: spliced %q, printed %q", text, got, canon)
		}
	}
	again, err := ParseSelect(canon)
	if err != nil {
		t.Fatalf("%q: canonical text %q does not parse: %v", text, canon, err)
	}
	if twice := SelectSQL(again); twice != canon {
		t.Fatalf("%q: printing is not a fixpoint:\n  %s\n  %s", text, canon, twice)
	}
	// Another text of the same skeleton is the same statement.
	if skel2, _, ok := Scan("  "+strings.ReplaceAll(text, " ", " \t "), nil, nil); !ok || string(skel2) != string(skel) {
		t.Fatalf("%q: the skeleton moved with white space", text)
	}
}

var shapeTexts = []string{
	"SELECT c_custkey, c_name, c_acctbal FROM Customer WHERE c_custkey = 17 CURRENCY 60 ON (Customer)",
	"SELECT C.c_custkey, O.o_orderkey FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey WHERE C.c_custkey = 4242 CURRENCY 15000 MS ON (C), 15000 MS ON (O)",
	"SELECT c_custkey FROM Customer WHERE c_acctbal BETWEEN 0.00 AND 1000.00 CURRENCY 3600 ON (Customer)",
	"SELECT TOP 10 o_custkey, SUM(o_totalprice) AS total FROM Orders WHERE o_custkey <= 1500 GROUP BY o_custkey ORDER BY total DESC CURRENCY 1.5 MIN ON (Orders)",
	"SELECT a FROM t WHERE a = -5 AND b = - -5 AND c = -(-5) AND d = -0.0 AND e = -x AND f = 3 - 2",
	"SELECT a FROM t WHERE s = 'it''s' AND u = '' AND v = 'a''''b' AND w <> 'plain'",
	"SELECT a FROM t WHERE f > 0.0000001 AND g < 1000000.5 AND h = 123456789012345678.0 AND i = .5 AND j = 5.",
	"SELECT a FROM t WHERE a IN (1, 2, 3) AND NOT b IN (SELECT x FROM u WHERE y = 7) AND EXISTS (SELECT 1 FROM v WHERE v.z = t.a AND v.k != 9)",
	"SELECT a FROM (SELECT a, b FROM t WHERE b > 2 CURRENCY 5 ON (t)) AS d WHERE d.a < 8 -- trailing comment 99",
	"SELECT NULL, TRUE, FALSE, 1 FROM t WHERE x IS NOT NULL;",
	"select distinct a from t t1 where ( a = 1 ) and b=2 or c>=3",
}

// dmlTexts are INSERT, UPDATE and DELETE texts whose literals carry slots.
var dmlTexts = []string{
	"INSERT INTO Orders VALUES (1, 2, 3.50, GETDATE()), (4, 5, -6, 'x')",
	"INSERT INTO o (c, k) VALUES (-0.0, - -5)",
	"UPDATE Customer SET c_acctbal = c_acctbal * 1.01, c_name = 'it''s' WHERE c_custkey = -17 AND c_name <> ''",
	"UPDATE t SET a = NULL WHERE b = NULL OR c IN (1, -2, 3.5)",
	"DELETE FROM Orders WHERE o_custkey = 3 AND o_orderkey = -(4)",
	"DELETE FROM t",
}

func TestScanAgreesWithTheParser(t *testing.T) {
	for _, text := range shapeTexts {
		sel, err := ParseSelect(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		checkShape(t, text, sel)
	}
	for _, text := range dmlTexts {
		stmt, err := Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		checkDML(t, text, stmt)
		if skel, _, _ := Scan(text, nil, nil); !IsDML(skel) {
			t.Fatalf("%q: IsDML false", text)
		}
	}
	for _, text := range append(shapeTexts[:2:2], "CREATE TABLE t (a BIGINT)", "BEGIN TIMEORDERED", "insertion") {
		if skel, _, _ := Scan(text, nil, nil); IsDML(skel) {
			t.Fatalf("%q: IsDML true", text)
		}
	}
	// Texts of one shape share a skeleton; kinds and structure tell shapes apart.
	skel := func(s string) string {
		k, _, ok := Scan(s, nil, nil)
		if !ok {
			t.Fatalf("%q does not scan", s)
		}
		return string(k)
	}
	base := skel("SELECT a FROM t WHERE a = 17 AND s = 'x'")
	if skel("select a from t where a = 17 and s = 'x'") == base {
		t.Fatal("identifier case is part of the canonical text and must be part of the skeleton")
	}
	for _, same := range []string{"SELECT a FROM t WHERE a=4242 AND s='y''z'", "SELECT a\tFROM t -- c\n WHERE a = 0 AND s = ''"} {
		if skel(same) != base {
			t.Fatalf("%q has another skeleton than its shape", same)
		}
	}
	for _, other := range []string{"SELECT a FROM t WHERE a = 17.0 AND s = 'x'", "SELECT a FROM t WHERE a = '17' AND s = 'x'", "SELECT a FROM t WHERE a = 17 AND s = x", "SELECT a FROM t WHERE a = 17 AND s = 'x';"} {
		if skel(other) == base {
			t.Fatalf("%q shares a skeleton with another shape", other)
		}
	}
	for _, bad := range []string{"SELECT 'open", "SELECT a ? b", "SELECT 99999999999999999999 FROM t", "SELECT $ FROM t"} {
		if _, _, ok := Scan(bad, nil, nil); ok {
			t.Fatalf("%q scanned", bad)
		}
	}
}

func TestScanAndSpliceDoNotAllocateBeyondTheResult(t *testing.T) {
	text := shapeTexts[1]
	sel, err := ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	pieces := SelectPieces(sel)
	var splice string
	allocs := testing.AllocsPerRun(100, func() {
		var kb [256]byte
		var vb [8]sqltypes.Value
		_, vals, ok := Scan(text, kb[:0], vb[:0])
		if !ok {
			t.Fatal("no scan")
		}
		sel.Slots.Bind(vals)
		splice = pieces.Splice(vals)
	})
	if splice != SelectSQL(sel) {
		t.Fatalf("spliced %q", splice)
	}
	if allocs > 1 {
		t.Fatalf("scan, bind and splice took %.0f allocations, want the spliced text alone", allocs)
	}
}

// TestLiteralSQLReadsBack: whatever value a literal holds, its SQL text
// lexes back to that value — a FLOAT never prints in exponent form (≥ 1e6
// and < 1e-4 did, and the lexer has no token for it) — and Value.String,
// which report output prints, is as it was.
func TestLiteralSQLReadsBack(t *testing.T) {
	if got := sqltypes.NewFloat(1000000.5).String(); got != "1.0000005e+06" {
		t.Fatalf("Value.String changed: %s", got)
	}
	for _, v := range []sqltypes.Value{
		sqltypes.NewFloat(1000000.5), sqltypes.NewFloat(0.00001), sqltypes.NewFloat(1e-7), sqltypes.NewFloat(1e21),
		sqltypes.NewFloat(123456789.25), sqltypes.NewFloat(-2.5e-9), sqltypes.NewFloat(0.1), sqltypes.NewFloat(17.25),
		sqltypes.NewFloat(math.MaxFloat64), sqltypes.NewFloat(math.SmallestNonzeroFloat64),
		sqltypes.NewInt(0), sqltypes.NewInt(-42), sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewString(""), sqltypes.NewString("it's"), sqltypes.NewString("''"), sqltypes.NewString("é 1e6"),
	} {
		text := (&Literal{Val: v}).SQL()
		if strings.ContainsAny(text, "eE") && v.Kind() == sqltypes.KindFloat {
			t.Fatalf("%v prints as %s", v, text)
		}
		sel, err := ParseSelect("SELECT a FROM t WHERE a = " + text)
		if err != nil {
			t.Fatalf("%v prints as %s, which does not parse: %v", v, text, err)
		}
		got := sel.Where.(*BinaryExpr).Right.(*Literal).Val
		// An integral FLOAT reads back as the INT of the same number.
		if got.Compare(v) != 0 || got.Kind() != v.Kind() && !(v.Kind() == sqltypes.KindFloat && v.Float() == math.Trunc(v.Float())) {
			t.Fatalf("%v prints as %s and reads back as %v", v, text, got)
		}
		if again := SelectSQL(sel); !strings.HasSuffix(again, "(a = "+text+")") {
			t.Fatalf("%s is not a fixpoint: %s", text, again)
		}
	}
}

// TestIdentifiersAreASCII: a byte above 0x7F outside a string literal is an
// unexpected character, not a letter; inside one it is kept.
func TestIdentifiersAreASCII(t *testing.T) {
	for _, c := range []byte{0xAA, 0xB5, 0xC0, 0xE9, 0xFF} {
		if class[c] == cLetter || class[c] == cDigit {
			t.Fatalf("byte %#x counts as a letter", c)
		}
	}
	for _, text := range []string{"SELECT é FROM t", "SELECT a FROM t WHERE caf\xe9 = 1", "SELECT a\xaa FROM t", "SELECT ñandú FROM t"} {
		if _, err := Parse(text); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Fatalf("%q: %v", text, err)
		}
	}
	sel, err := ParseSelect("SELECT a_1, _b FROM Tbl WHERE s = 'café ñ'")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Where.(*BinaryExpr).Right.(*Literal).Val.Str(); got != "café ñ" {
		t.Fatalf("string literal read as %q", got)
	}
}

// checkDML holds an INSERT, UPDATE or DELETE to checkSlots; it ignores any
// other statement.
func checkDML(t *testing.T, text string, stmt Statement) {
	t.Helper()
	switch s := stmt.(type) {
	case *InsertStmt:
		checkSlots(t, text, s, s.Slots)
	case *UpdateStmt:
		checkSlots(t, text, s, s.Slots)
	case *DeleteStmt:
		checkSlots(t, text, s, s.Slots)
	}
}

// TestScanPiecesCutsOnlyAtSafeSeams: a shipped read's scan is its pieces'
// scans and its literals' in turn, which holds only where no literal can run
// into the token beside it. The printer makes no such seam; pieces that
// have one (a minus before a negative number reads as a comment, digits or
// an identifier beside a number as one token, a quote beside a string as an
// escaped quote) are never cut, and every other cut agrees with Scan of the
// spliced text.
func TestScanPiecesCutsOnlyAtSafeSeams(t *testing.T) {
	for _, tc := range []struct {
		text []string
		safe bool
	}{
		{[]string{"SELECT a FROM t WHERE (b = ", ") AND (c IN (", ", ", "))"}, true},
		{[]string{"SELECT a FROM t WHERE b = -", ""}, false},
		{[]string{"SELECT a FROM t WHERE b = 1", ""}, false},
		{[]string{"SELECT a FROM t WHERE b = x", ""}, false},
		{[]string{"SELECT a FROM t WHERE b = .", ""}, false},
		{[]string{"SELECT a FROM t WHERE b = ", ".5"}, false},
		{[]string{"SELECT a FROM t WHERE b = ", "x"}, false},
		{[]string{"SELECT a FROM t WHERE b = ", "'x'"}, false},
		{[]string{"SELECT a FROM t WHERE b IN (", "", ")"}, false},
	} {
		p := Pieces{Text: tc.text}
		for i := 1; i < len(tc.text); i++ {
			p.Slots = append(p.Slots, i)
		}
		ps := ScanPieces(p.Splice(make([]sqltypes.Value, len(p.Slots))), p)
		for _, v := range []sqltypes.Value{sqltypes.NewInt(5), sqltypes.NewInt(-5), sqltypes.NewFloat(-0.5), sqltypes.NewString("it's")} {
			params := make([]sqltypes.Value, len(p.Slots))
			for i := range params {
				params[i] = v
			}
			key, vals, ok := ps.Append(nil, nil, params)
			if ok != tc.safe {
				t.Fatalf("%q: cut %v, want %v", tc.text, ok, tc.safe)
			}
			if !ok {
				continue
			}
			text := p.Splice(params)
			wkey, wvals, _ := Scan(text, nil, nil)
			if string(key) != string(wkey) || len(vals) != len(wvals) {
				t.Fatalf("%q: cut scan %q %v, Scan %q %v", text, key, vals, wkey, wvals)
			}
			for i := range vals {
				if !sameValue(vals[i], wvals[i]) {
					t.Fatalf("%q: value %d cut %v, Scan %v", text, i, vals[i], wvals[i])
				}
			}
		}
	}
}

// TestFloatValueIsParseFloats: a FLOAT token's value is strconv.ParseFloat's
// bit for bit, on both sides of the fast path's limits (15 significant
// digits, 22 after the point).
func TestFloatValueIsParseFloats(t *testing.T) {
	for _, text := range []string{
		"0.0", "0.", ".0", "1.5", "5.", ".5", "0.1", "0.3", "1234.5678", "123456789012.345",
		"123456789012345.", "1.23456789012345", "0.123456789012345", "999999999999999.9", // 15 and 16 digits
		"1234567890123456.", "1.234567890123456", "9007199254740993.0", // 16 and 17 digits
		"12345678901234567.", "0.12345678901234567", "1.7976931348623157",
		"0.0000000000000000000001", "0.00000000000000000000001", "1.0000000000000000000001", // 22 and 23 after the point
		"0.0000000000000000000000123", "1.5000000000000", "1.50000000000000000000000", "100000000000000.0",
		"000000000000000000001.5", "0000.000", "00.1", "4503599627370497.5", "0.30000000000000004",
		"99999999999999999999999999.9", "123456789012345678901234567890.123456789",
	} {
		want, err := strconv.ParseFloat(text, 64)
		if err != nil {
			t.Fatal(err)
		}
		v, err := numberValue(text)
		if err != nil || v.Kind() != sqltypes.KindFloat || math.Float64bits(v.Float()) != math.Float64bits(want) {
			t.Errorf("numberValue(%q) = %v, %v; ParseFloat says %v", text, v, err, want)
		}
	}
}
