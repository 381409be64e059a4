package exec

import (
	"math"
	"testing"

	"relaxedcc/internal/sqltypes"
)

// reply is a Remote whose link delivers rows.
func reply(s *Schema, rows []sqltypes.Row) *Remote {
	return &Remote{Out: s, Fetch: func(*EvalContext) ([]sqltypes.Row, error) { return rows, nil }}
}

// TestOnlyValuesAndRemoteEmitRowBackedBatches: rows exist only at the edges.
// Sort (full and top-N), Aggregate and Distinct emit views of lanes they
// keep, here over a row-backed child; a Values list and a Remote reply are
// the row-backed batches in a tree.
func TestOnlyValuesAndRemoteEmitRowBackedBatches(t *testing.T) {
	s := testSchema("t")
	for name, op := range map[string]Operator{
		"sort":      &Sort{Child: reply(s, testRows(30)), Keys: []Expr{{Col: 2}}, Desc: []bool{true}},
		"top-n":     &Sort{Child: NewValues(s, testRows(30)), Keys: []Expr{{Col: 2}}, Desc: []bool{true}, TopN: 4},
		"aggregate": &Aggregate{Child: reply(s, testRows(30)), GroupCols: []int{1}, Aggs: []AggSpec{{Func: "COUNT", Star: true}}, Out: NewSchema(Col{Name: "name"}, Col{Name: "n"})},
		"distinct":  &Distinct{Child: NewValues(s, testRows(30))},
		"values":    NewValues(s, testRows(30)),
		"remote":    reply(s, testRows(30)),
	} {
		batches := 0
		err := op.Open(&EvalContext{Now: testNow, BatchSize: 7})
		if err == nil {
			err = eachBatch(op, func(cb *sqltypes.ColBatch) error {
				if batches++; (cb.Rows != nil) != (name == "values" || name == "remote") {
					t.Errorf("%s: batch %d row-backed: %v", name, batches, cb.Rows != nil)
				}
				return nil
			})
		}
		if op.Close(); err != nil || batches == 0 {
			t.Fatalf("%s: %d batches, %v", name, batches, err)
		}
	}
}

// TestSortTopNDropsDisplacedRows: a top-N sort copies a row only when it
// enters the heap, and drops the rows the heap displaced once they outnumber
// the kept ones by a batch. Ascending ids sorted descending make every row
// displace the worst kept one, so without that the lanes would hold all
// 5,000 rows when the output starts.
func TestSortTopNDropsDisplacedRows(t *testing.T) {
	srt := &Sort{Child: NewValues(testSchema("t"), testRows(5000)), Keys: []Expr{{Col: 0}}, Desc: []bool{true}, TopN: 3}
	ctx := &EvalContext{Now: testNow, BatchSize: 64}
	if err := srt.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if n := srt.rows.Len(); n >= 2*3+64 {
		t.Fatalf("the sort held %d rows for a top 3", n)
	}
	srt.Close()
	res, err := Run(srt, ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 5000 || res.Rows[2][0].Int() != 4998 {
		t.Fatalf("top 3 = %v", res.Rows)
	}
}

// TestSortTopNBeyondInputIsAFullSort: a TOP n larger than the input never
// fills the heap, so nothing is displaced and nothing compacted, even at
// the largest n (where 2n overflows). The output is the whole input sorted.
func TestSortTopNBeyondInputIsAFullSort(t *testing.T) {
	const n = 3000
	srt := &Sort{Child: NewValues(testSchema("t"), testRows(n)), Keys: []Expr{{Col: 0}}, Desc: []bool{true}, TopN: math.MaxInt64}
	ctx := &EvalContext{Now: testNow, BatchSize: 64}
	if err := srt.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if srt.spare.Len() != 0 || srt.rows.Len() != n {
		t.Fatalf("after Open: %d rows kept, %d compacted", srt.rows.Len(), srt.spare.Len())
	}
	srt.Close()
	res, err := Run(srt, ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if row[0].Int() != int64(n-i) {
			t.Fatalf("row %d of %d = %v", i, len(res.Rows), row)
		}
	}
	if len(res.Rows) != n {
		t.Fatalf("%d rows, want %d", len(res.Rows), n)
	}
}
