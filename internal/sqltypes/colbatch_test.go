package sqltypes

import (
	"math"
	"testing"
	"time"
)

func testRows() Batch {
	return Batch{
		{NewInt(1), NewFloat(1.5), NewString("a"), NewBool(true)},
		{NewInt(2), NewFloat(2.5), NewString("b"), NewBool(false)},
		{NewInt(3), NewFloat(3.5), NewString("c"), NewBool(true)},
		{NewInt(4), NewFloat(4.5), NewString("d"), NewBool(false)},
	}
}

func TestColBatchTransposesTypedColumns(t *testing.T) {
	rows := testRows()
	var b ColBatch
	b.ResetRows(rows, 4)

	if b.Len() != 4 || b.NumActive() != 4 || b.Width() != 4 {
		t.Fatalf("Len=%d NumActive=%d Width=%d, want 4/4/4", b.Len(), b.NumActive(), b.Width())
	}
	ints := b.Col(0)
	if ints.Kind != KindInt || len(ints.I64) != 4 {
		t.Fatalf("col 0: kind=%v len(I64)=%d, want KindInt/4", ints.Kind, len(ints.I64))
	}
	for i, want := range []int64{1, 2, 3, 4} {
		if ints.I64[i] != want {
			t.Fatalf("col 0 row %d: got %d, want %d", i, ints.I64[i], want)
		}
	}
	floats := b.Col(1)
	if floats.Kind != KindFloat || floats.F64[2] != 3.5 {
		t.Fatalf("col 1: kind=%v F64[2]=%v", floats.Kind, floats.F64)
	}
	strs := b.Col(2)
	if strs.Kind != KindString || strs.Str[1] != "b" {
		t.Fatalf("col 2: kind=%v Str=%v", strs.Kind, strs.Str)
	}
	bools := b.Col(3)
	if bools.Kind != KindBool || bools.I64[0] != 1 || bools.I64[1] != 0 {
		t.Fatalf("col 3: kind=%v I64=%v", bools.Kind, bools.I64)
	}
	// Round-trip through the generic accessor.
	for i, r := range rows {
		for j := range r {
			if got := b.Col(j).Value(i); !got.Equal(r[j]) {
				t.Fatalf("Value(%d,%d) = %v, want %v", i, j, got, r[j])
			}
		}
	}
}

func TestColBatchSelection(t *testing.T) {
	rows := testRows()
	var b ColBatch
	b.ResetRows(rows, 4)
	b.Sel = []int32{1, 3}

	if b.NumActive() != 2 {
		t.Fatalf("NumActive = %d, want 2", b.NumActive())
	}
	got := b.AppendRows(nil)
	if len(got) != 2 || !got[0].Equal(rows[1]) || !got[1].Equal(rows[3]) {
		t.Fatalf("AppendRows with Sel = %v", got)
	}
	// Row-backed batches hand out shared references, not copies.
	if &got[0][0] != &rows[1][0] {
		t.Fatal("AppendRows copied a row instead of sharing the reference")
	}
}

func TestVecNullTracking(t *testing.T) {
	rows := Batch{
		{Null},
		{NewInt(7)},
		{Null},
		{NewInt(9)},
	}
	var v Vec
	v.FillFromRows(rows, 0)
	if v.Kind != KindInt {
		t.Fatalf("kind = %v, want KindInt", v.Kind)
	}
	wantNull := []bool{true, false, true, false}
	for i, wn := range wantNull {
		if v.IsNull(i) != wn {
			t.Fatalf("IsNull(%d) = %v, want %v", i, v.IsNull(i), wn)
		}
	}
	if v.I64[1] != 7 || v.I64[3] != 9 {
		t.Fatalf("I64 = %v", v.I64)
	}
	if got := v.Value(0); !got.IsNull() {
		t.Fatalf("Value(0) = %v, want NULL", got)
	}
	if got := v.Value(3); got.Int() != 9 {
		t.Fatalf("Value(3) = %v, want 9", got)
	}
}

// TestVecNullBackingReuse: refilling a vector must reuse the null-lane
// backing array from the previous batch (stashed while Null is nil) instead
// of reallocating it, so nullable columns stay allocation-free in steady
// state — while Null stays exactly nil for batches without NULLs.
func TestVecNullBackingReuse(t *testing.T) {
	withNulls := Batch{{Null}, {NewInt(7)}, {Null}, {NewInt(9)}}
	noNulls := Batch{{NewInt(1)}, {NewInt(2)}, {NewInt(3)}, {NewInt(4)}}
	var v Vec
	v.FillFromRows(withNulls, 0)
	if v.Null == nil {
		t.Fatal("null lane missing after first fill")
	}
	backing := &v.Null[0]

	v.FillFromRows(noNulls, 0)
	if v.Null != nil {
		t.Fatalf("Null = %v, want nil for a batch without NULLs", v.Null)
	}

	v.FillFromRows(withNulls, 0)
	if v.Null == nil || &v.Null[0] != backing {
		t.Fatal("null lane reallocated instead of reusing the stashed backing")
	}
	for i, wn := range []bool{true, false, true, false} {
		if v.IsNull(i) != wn {
			t.Fatalf("IsNull(%d) = %v, want %v", i, v.IsNull(i), wn)
		}
	}

	// GatherFrom reuses the same stashed backing.
	var dst Vec
	dst.GatherFrom(&v, []int32{0, 1, 3})
	gb := &dst.Null[0]
	dst.GatherFrom(&v, []int32{1, 3})
	if dst.IsNull(0) || dst.IsNull(1) {
		t.Fatalf("gather of non-NULL values tracked nulls: %v", dst.Null)
	}
	dst.GatherFrom(&v, []int32{2, 0})
	if dst.Null == nil || &dst.Null[0] != gb {
		t.Fatal("GatherFrom reallocated the null lane instead of reusing it")
	}
	if !dst.IsNull(0) || !dst.IsNull(1) {
		t.Fatalf("gathered nulls wrong: %v", dst.Null)
	}
}

func TestVecAllNullAndMixedKindDegrade(t *testing.T) {
	var v Vec
	v.FillFromRows(Batch{{Null}, {Null}}, 0)
	if len(v.Any) != 2 || !v.Value(0).IsNull() || !v.Value(1).IsNull() {
		t.Fatalf("all-NULL column: Any=%v", v.Any)
	}

	mixed := Batch{{NewInt(1)}, {NewString("x")}, {Null}}
	v.FillFromRows(mixed, 0)
	if v.Kind != KindNull || len(v.Any) != 3 {
		t.Fatalf("mixed column: kind=%v Any=%v", v.Kind, v.Any)
	}
	for i, r := range mixed {
		if got := v.Value(i); !got.Equal(r[0]) {
			t.Fatalf("mixed Value(%d) = %v, want %v", i, got, r[0])
		}
	}
}

func TestVecTimeColumn(t *testing.T) {
	t0 := time.Date(2004, 6, 15, 0, 0, 0, 0, time.UTC)
	rows := Batch{{NewTime(t0)}, {NewTime(t0.Add(time.Hour))}}
	var v Vec
	v.FillFromRows(rows, 0)
	if v.Kind != KindTime || v.I64[1]-v.I64[0] != int64(time.Hour) {
		t.Fatalf("time column: kind=%v I64=%v", v.Kind, v.I64)
	}
	if !v.Value(0).Equal(NewTime(t0)) {
		t.Fatalf("Value(0) = %v", v.Value(0))
	}
}

func TestColBatchReuseResetsState(t *testing.T) {
	var b ColBatch
	b.ResetRows(Batch{{Null}, {NewInt(1)}}, 1)
	_ = b.Col(0) // materialize with a NULL present
	b.Sel = []int32{0}

	// Reuse for a second, smaller window: columns and Sel must reset.
	b.ResetRows(Batch{{NewInt(5)}}, 1)
	if b.Sel != nil || b.NumActive() != 1 {
		t.Fatalf("stale Sel after reset: %v", b.Sel)
	}
	c := b.Col(0)
	if c.Kind != KindInt || c.IsNull(0) || c.I64[0] != 5 {
		t.Fatalf("stale column after reset: kind=%v null=%v I64=%v", c.Kind, c.Null, c.I64)
	}
}

func TestColBatchPurelyColumnar(t *testing.T) {
	var v Vec
	v.FillFromRows(Batch{{NewInt(10)}, {NewInt(20)}}, 0)
	var b ColBatch
	b.ResetCols(1, 2)
	b.SetCol(0, &v)
	b.Sel = []int32{1}
	got := b.AppendRows(nil)
	if len(got) != 1 || got[0][0].Int() != 20 {
		t.Fatalf("columnar AppendRows = %v", got)
	}
}

func TestVecGatherFrom(t *testing.T) {
	// Typed source with NULLs: gathered values and null flags must follow
	// the index list, including duplicates and out-of-order picks.
	var src Vec
	src.FillFromRows(Batch{
		{NewInt(10)}, {Null}, {NewInt(30)}, {NewInt(40)},
	}, 0)

	var dst Vec
	dst.GatherFrom(&src, []int32{3, 1, 0, 0})
	if dst.Len() != 4 || dst.Kind != KindInt {
		t.Fatalf("dst: len=%d kind=%v, want 4/KindInt", dst.Len(), dst.Kind)
	}
	wantVals := []Value{NewInt(40), Null, NewInt(10), NewInt(10)}
	for i, want := range wantVals {
		if got := dst.Value(i); got.Compare(want) != 0 || got.Kind() != want.Kind() {
			t.Fatalf("dst[%d] = %v, want %v", i, got, want)
		}
	}

	// String source without NULLs: Null must stay nil on the destination.
	var ssrc Vec
	ssrc.FillFromRows(Batch{{NewString("x")}, {NewString("y")}}, 0)
	dst.GatherFrom(&ssrc, []int32{1, 0, 1})
	if dst.Kind != KindString || dst.Null != nil {
		t.Fatalf("string gather: kind=%v null=%v, want KindString/nil", dst.Kind, dst.Null)
	}
	for i, want := range []string{"y", "x", "y"} {
		if dst.Str[i] != want {
			t.Fatalf("dst.Str[%d] = %q, want %q", i, dst.Str[i], want)
		}
	}

	// Mixed-kind source degrades to Any; the gather must carry the values
	// verbatim.
	var asrc Vec
	asrc.FillFromRows(Batch{{NewInt(1)}, {NewString("two")}}, 0)
	dst.GatherFrom(&asrc, []int32{1, 1, 0})
	if dst.Len() != 3 {
		t.Fatalf("any gather: len=%d, want 3", dst.Len())
	}
	for i, want := range []Value{NewString("two"), NewString("two"), NewInt(1)} {
		if got := dst.Value(i); got.Compare(want) != 0 || got.Kind() != want.Kind() {
			t.Fatalf("any dst[%d] = %v, want %v", i, got, want)
		}
	}

	// Empty index list on a typed source.
	dst.GatherFrom(&src, nil)
	if dst.Len() != 0 {
		t.Fatalf("empty gather: len=%d, want 0", dst.Len())
	}
}

// TestAppendRowsMaterializesEveryLane checks the typed materialization of a
// purely columnar batch against Vec.Value cell by cell: every lane, NULLs in
// typed lanes, a mixed-kind (Any) column, with and without a selection.
func TestAppendRowsMaterializesEveryLane(t *testing.T) {
	at := time.Unix(42, 7).UTC()
	rows := Batch{
		{NewInt(1), NewFloat(1.5), NewString("a"), NewBool(true), NewTime(at), NewInt(9)},
		{Null, Null, Null, Null, Null, NewString("mixed")},
		{NewInt(-3), NewFloat(math.Copysign(0, -1)), NewString(""), NewBool(false), NewTime(at.Add(time.Hour)), Null},
		{NewInt(4), NewFloat(math.NaN()), NewString("d"), NewBool(true), NewTime(at), NewFloat(2)},
	}
	var b ColBatch
	b.ResetCols(len(rows[0]), len(rows))
	for j := range rows[0] {
		v := b.BuildCol(j)
		for _, r := range rows {
			v.Append(r[j])
		}
	}
	for _, sel := range [][]int32{nil, {0, 2, 3}, {1}, {}} {
		b.Sel = sel
		got := b.AppendRows(Batch{{NewInt(0)}})[1:] // appends after what dst holds
		if len(got) != b.NumActive() {
			t.Fatalf("sel %v: %d rows, want %d", sel, len(got), b.NumActive())
		}
		for k, row := range got {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			for j, v := range row {
				want := rows[i][j]
				if v.Kind() != want.Kind() || v.String() != want.String() {
					t.Fatalf("sel %v row %d col %d = %v (%v), want %v (%v)", sel, k, j, v, v.Kind(), want, want.Kind())
				}
			}
		}
	}
}
