package exec

import (
	"fmt"
	"testing"

	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// TestSlotLiteralsReadTheExecutionsParameters: everything a tree holds of a
// slot literal is a read of EvalContext.Params — the compiled expression, the
// comparison kernel, an index scan's bounds, a Remote's text — so one tree
// answers for every statement of its shape; with no parameters (a plan run
// for the statement it was made from) each answers with the literal's own
// value, and a literal without a slot is the constant it always was.
func TestSlotLiteralsReadTheExecutionsParameters(t *testing.T) {
	tbl := storageTable(t)
	schema := testSchema("t")
	// Slots: 1 is the select list's, 2..4 the predicate's.
	sel, err := sqlparser.ParseSelect("SELECT 1 FROM t WHERE bal BETWEEN 10.0 AND 20.0 AND name = '1'")
	if err != nil {
		t.Fatal(err)
	}
	own := &EvalContext{Now: testNow}
	with := func(lo, hi float64, name string) *EvalContext {
		return &EvalContext{Now: testNow, Params: []sqltypes.Value{intv(1), floatv(lo), floatv(hi), strv(name)}}
	}
	count := func(op Operator, ctx *EvalContext) int {
		t.Helper()
		res, err := Run(op, ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}

	row, err := Compile(sel.Where, schema)
	if err != nil {
		t.Fatal(err)
	}
	kernel, ok := compileKernel(sel.Where, schema)
	if !ok {
		t.Fatal("no kernel for BETWEEN AND =")
	}
	for _, p := range []*Pred{{Row: row, batch: lift(row)}, {Row: row, batch: kernel}} {
		filtered := &Scan{Table: tbl, schema: schema, Filter: p}
		// bal 10..20 with name (id%3) '1': ids 10, 13, 16, 19.
		if n := count(filtered, own); n != 4 {
			t.Fatalf("own values: %d rows", n)
		}
		if n := count(filtered, with(1, 100, "2")); n != 33 {
			t.Fatalf("parameters 1..100, '2': %d rows, want 33", n)
		}
		if n := count(filtered, with(50, 40, "0")); n != 0 {
			t.Fatalf("an empty range: %d rows", n)
		}
		if n := count(filtered, nil); n != 4 {
			t.Fatalf("nil context: %d rows", n)
		}
		if n := count(filtered, own); n != 4 {
			t.Fatalf("own values again: %d rows", n)
		}
	}

	// An index scan whose bounds came from slots 2 and 3.
	scan := NewScan(tbl, schema)
	scan.Index = "ix_bal"
	scan.Lo = storage.Bound{Vals: sqltypes.Row{floatv(10)}, Inclusive: true}
	scan.Hi = storage.Bound{Vals: sqltypes.Row{floatv(20)}, Inclusive: true}
	scan.LoParam, scan.HiParam = 2, 3
	for _, tc := range []struct {
		ctx  *EvalContext
		want int
	}{{own, 11}, {with(1, 3, ""), 3}, {with(99, 1000, ""), 2}, {own, 11}, {with(5, 5, ""), 1}} {
		if n := count(scan, tc.ctx); n != tc.want || scan.RowsScanned != tc.want {
			t.Fatalf("index scan with %v: %d rows, %d scanned, want %d", tc.ctx.Params, n, scan.RowsScanned, tc.want)
		}
	}
	if scan.Lo.Vals[0].Float() != 10 || scan.Hi.Vals[0].Float() != 20 {
		t.Fatal("a run with parameters overwrote the plan's own bounds")
	}
	// Only the end that came from a slot is read from the parameters.
	scan.HiParam = 0
	if n := count(scan, with(15, 1000, "")); n != 6 {
		t.Fatalf("lo from a parameter, hi constant: %d rows, want 6", n)
	}

	// A Remote ships the scan of its text spliced with the run's parameters,
	// the splice made only when asked for.
	var shipped []string
	sql, pieces := sqlparser.SelectSQL(sel), sqlparser.SelectPieces(sel)
	r := &Remote{SQL: sql, Text: pieces, Scan: sqlparser.ScanPieces(sql, pieces), Out: NewSchema()}
	r.Fetch = func(ctx *EvalContext) ([]sqltypes.Row, error) {
		q := r.Shipment(ctx)
		text := q.Text()
		if skel, vals, _ := sqlparser.Scan(text, nil, nil); string(skel) != string(q.Skel) || fmt.Sprint(vals) != fmt.Sprint(q.Vals) {
			t.Fatalf("%q ships %q %v", text, q.Skel, q.Vals)
		}
		shipped = append(shipped, text)
		return nil, nil
	}
	count(r, own)
	count(r, with(0.5, 1000000.5, "it's"))
	count(r, own)
	if len(shipped) != 3 || shipped[0] != sqlparser.SelectSQL(sel) || shipped[2] != shipped[0] ||
		shipped[1] != "SELECT 1 FROM t WHERE ((bal BETWEEN 0.5 AND 1000000.5) AND (name = 'it''s'))" {
		t.Fatalf("shipped %q", shipped)
	}
}
