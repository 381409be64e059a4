package exec

import (
	"fmt"
	"testing"

	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// testKernel compiles sql into a BoolKernel, failing the test when the
// expression has no vectorized form.
func testKernel(t *testing.T, sql string, schema *Schema) BoolKernel {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT 1 FROM x WHERE " + sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	k, ok := CompileKernel(sel.Where, schema)
	if !ok {
		t.Fatalf("CompileKernel(%q): no kernel", sql)
	}
	return k
}

// TestKernelMatchesRowPredicate checks every kernelizable comparison shape
// against the row-at-a-time Compiled evaluation over the same rows,
// including NULLs and mixed numeric kinds.
func TestKernelMatchesRowPredicate(t *testing.T) {
	s := testSchema("t")
	rows := testRows(40)
	rows[5][2] = sqltypes.Null  // bal NULL
	rows[11][1] = sqltypes.Null // name NULL
	rows[17][2] = intv(17)      // bal as INT: mixed numeric column
	preds := []string{
		"id > 10",
		"10 > id",
		"id >= 10 AND id <= 30",
		"id BETWEEN 10 AND 30",
		"bal > 5.5",
		"bal <= 20",
		"name = '1'",
		"name <> '1'",
		"id > 5 AND name = '2' AND bal < 30",
		"id = 999",
		"bal >= 17 AND bal <= 17",
	}
	cb := &sqltypes.ColBatch{}
	cb.ResetRows(rows, len(s.Cols))
	c := ctx()
	for _, sql := range preds {
		k := testKernel(t, sql, s)
		pred := compile(t, sql, s)
		sel, err := k(c, cb, nil, nil)
		if err != nil {
			t.Fatalf("%q: kernel: %v", sql, err)
		}
		var want []int32
		for i, r := range rows {
			ok, err := PredicateTrue(pred, c, r)
			if err != nil {
				t.Fatalf("%q: row eval: %v", sql, err)
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		if fmt.Sprint(sel) != fmt.Sprint(want) {
			t.Fatalf("%q: kernel sel %v, row predicate %v", sql, sel, want)
		}
	}
}

// TestKernelCandidateRefinement checks in-place AND-style narrowing: the
// kernel must honor the candidate list and may write into its backing array.
func TestKernelCandidateRefinement(t *testing.T) {
	s := testSchema("t")
	rows := testRows(30)
	cb := &sqltypes.ColBatch{}
	cb.ResetRows(rows, len(s.Cols))
	c := ctx()

	first := testKernel(t, "id > 10", s)
	second := testKernel(t, "name = '0'", s)
	sel, err := first(c, cb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err = second(c, cb, sel, sel[:0]) // sanctioned in-place refinement
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range sel {
		id := rows[i][0].Int()
		if id <= 10 || id%3 != 0 {
			t.Fatalf("row %d (id=%d) should not survive", i, id)
		}
	}
	if len(sel) != 7 { // ids 12,15,...,30
		t.Fatalf("got %d survivors, want 7", len(sel))
	}
}

// TestAndKernelEmptyFirstConjunct is a regression test: when an AND kernel
// runs with a nil dst and the first conjunct rejects every row, the first
// kernel's survivor slice is nil — which the second conjunct must not
// misread as the nil "all rows" candidate list. The bug emitted rows that
// satisfied only the second conjunct.
func TestAndKernelEmptyFirstConjunct(t *testing.T) {
	s := testSchema("t")
	rows := testRows(20) // ids 1..20: nothing exceeds 100, everything has bal < 30
	cb := &sqltypes.ColBatch{}
	cb.ResetRows(rows, len(s.Cols))
	c := ctx()
	for _, sql := range []string{
		"id > 100 AND bal < 30",
		"id BETWEEN 200 AND 300", // compiles to the same AND chain
		"id > 100 AND id < 5 AND bal < 30",
	} {
		sel, err := testKernel(t, sql, s)(c, cb, nil, nil)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(sel) != 0 {
			t.Fatalf("%q: sel = %v, want empty — second conjunct ran over all rows", sql, sel)
		}
		if sel == nil {
			t.Fatalf("%q: kernel returned nil selection; nil means all rows to chained kernels", sql)
		}
	}
}

// TestKernelNonVectorizable ensures CompileKernel declines expressions
// outside its fragment rather than guessing.
func TestKernelNonVectorizable(t *testing.T) {
	s := testSchema("t")
	for _, sql := range []string{
		"id > 10 OR id < 3",      // OR is not fused
		"id + 1 > 10",            // arithmetic operand
		"id NOT BETWEEN 3 AND 5", // negated between
		"name LIKE '1%'",         // no LIKE kernel
	} {
		sel, err := sqlparser.ParseSelect("SELECT 1 FROM x WHERE " + sql)
		if err != nil {
			continue // dialect may reject; fine either way
		}
		if _, ok := CompileKernel(sel.Where, s); ok {
			t.Fatalf("CompileKernel(%q) unexpectedly succeeded", sql)
		}
	}
}

// TestScanFilteredEmptyPrefix is a regression test: batches whose selection
// comes up empty before the first match ever allocates the selection buffer
// must not be emitted as "all rows active" (nil Sel). Batch size 1 makes
// every batch a single row, so any leak shows up in the count.
func TestScanFilteredEmptyPrefix(t *testing.T) {
	tbl := storageTable(t)
	s := testSchema("t")
	sc := NewScan(tbl, s)
	sc.Filter = compile(t, "id > 90", s) // 90 leading non-matching rows
	res, err := Run(sc, &EvalContext{Now: testNow, BatchSize: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
}

// TestHashJoinNumericKeyCollapse verifies INT and FLOAT keys join across
// kinds exactly as the order-preserving Key() encoding did: 2 joins 2.0.
func TestHashJoinNumericKeyCollapse(t *testing.T) {
	ls, rs := testSchema("L"), testSchema("R")
	lrows := []sqltypes.Row{
		{intv(1), strv("a"), floatv(1)},
		{intv(2), strv("b"), floatv(2)},
		{sqltypes.Null, strv("n"), floatv(0)},
	}
	rrows := []sqltypes.Row{
		{floatv(2.0), strv("x"), floatv(9)}, // FLOAT 2.0 must match INT 2
		{floatv(3.5), strv("y"), floatv(9)},
		{sqltypes.Null, strv("z"), floatv(9)}, // NULL never joins
	}
	j := NewHashJoin(NewValues(ls, lrows), NewValues(rs, rrows), []int{0}, []int{0}, nil, JoinInner)
	rows := drain(t, j)
	if len(rows) != 1 {
		t.Fatalf("rows = %v, want exactly the 2/2.0 match", rows)
	}
	if rows[0][0].Int() != 2 || rows[0][4].Str() != "x" {
		t.Fatalf("joined row = %v", rows[0])
	}
}

// TestHashJoinDuplicateBuildOrder checks that probe matches against
// duplicate build keys come out in build order, as the previous map-of-slices
// implementation produced.
func TestHashJoinDuplicateBuildOrder(t *testing.T) {
	ls, rs := testSchema("L"), testSchema("R")
	lrows := []sqltypes.Row{{intv(7), strv("p"), floatv(0)}}
	rrows := []sqltypes.Row{
		{intv(7), strv("first"), floatv(1)},
		{intv(7), strv("second"), floatv(2)},
		{intv(7), strv("third"), floatv(3)},
	}
	j := NewHashJoin(NewValues(ls, lrows), NewValues(rs, rrows), []int{0}, []int{0}, nil, JoinInner)
	rows := drain(t, j)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, want := range []string{"first", "second", "third"} {
		if rows[i][4].Str() != want {
			t.Fatalf("match %d = %q, want %q", i, rows[i][4].Str(), want)
		}
	}
}

// TestLiftedPredicateAllocatesOneScratchRow pins the fallback kernel's cost
// on a purely columnar batch (a Filter with an OR above a hash join): one
// scratch row per call, not a fresh row per candidate.
func TestLiftedPredicateAllocatesOneScratchRow(t *testing.T) {
	s := testSchema("t")
	rows := testRows(512)
	var cb sqltypes.ColBatch
	cb.ResetCols(3, len(rows))
	for j := 0; j < 3; j++ {
		v := cb.BuildCol(j)
		for _, r := range rows {
			v.Append(r[j])
		}
	}
	k := KernelFromPredicate(compile(t, "id < 100 OR bal > 400", s))
	c, dst := ctx(), make([]int32, 0, len(rows))
	var sel []int32
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if sel, err = k(c, &cb, nil, dst); err != nil {
			t.Fatal(err)
		}
	})
	if len(sel) != 99+112 {
		t.Fatalf("selected %d rows, want 211", len(sel))
	}
	if allocs > 1 {
		t.Errorf("%v allocations per batch of %d candidates, want at most the scratch row", allocs, len(rows))
	}
}

// TestLimitKeepsItsSelection runs a reused Limit tree whose cut lands inside
// a batch: after the first run the cut allocates nothing.
func TestLimitKeepsItsSelection(t *testing.T) {
	l := &Limit{Child: NewValues(testSchema("t"), testRows(50)), N: 7}
	c, got := ctx(), 0
	allocs := testing.AllocsPerRun(10, func() {
		if err := l.Open(c); err != nil {
			t.Fatal(err)
		}
		got = 0
		for {
			cb, ok, err := l.NextVec()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got += cb.NumActive()
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 7 || allocs != 0 {
		t.Errorf("%d rows with %v allocations per run, want 7 rows and none", got, allocs)
	}
}
