package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"relaxedcc/internal/sqltypes"
)

// sortedRows builds rows (id, name, bal) sorted by id, with dupFactor rows
// per key.
func sortedRows(keys []int64, dupFactor int) []sqltypes.Row {
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []sqltypes.Row
	for _, k := range sorted {
		for d := 0; d < dupFactor; d++ {
			out = append(out, sqltypes.Row{intv(k), strv(fmt.Sprint(d)), floatv(float64(k))})
		}
	}
	return out
}

func mergeJoinOf(t *testing.T, left, right []sqltypes.Row, kind JoinKind) *MergeJoin {
	t.Helper()
	l := NewValues(testSchema("L"), left)
	r := NewValues(testSchema("R"), right)
	return NewMergeJoin(l, r, []int{0}, []int{0}, nil, kind)
}

func TestMergeJoinInnerOneToOne(t *testing.T) {
	mj := mergeJoinOf(t, sortedRows([]int64{1, 2, 3, 5}, 1), sortedRows([]int64{2, 3, 4, 5}, 1), JoinInner)
	rows := drain(t, mj)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].Int() != 2 || rows[2][0].Int() != 5 {
		t.Fatalf("rows = %v", rows)
	}
	if len(rows[0]) != 6 {
		t.Fatal("output width")
	}
}

func TestMergeJoinManyToMany(t *testing.T) {
	// 2 left dups x 3 right dups per key -> 6 outputs per matching key.
	mj := mergeJoinOf(t, sortedRows([]int64{1, 2}, 2), sortedRows([]int64{2, 3}, 3), JoinInner)
	rows := drain(t, mj)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
}

func TestMergeJoinSemiAnti(t *testing.T) {
	left := sortedRows([]int64{1, 2, 3, 4}, 1)
	right := sortedRows([]int64{2, 4, 6}, 2)
	semi := mergeJoinOf(t, left, right, JoinSemi)
	rows := drain(t, semi)
	if len(rows) != 2 || rows[0][0].Int() != 2 || rows[1][0].Int() != 4 {
		t.Fatalf("semi = %v", rows)
	}
	anti := mergeJoinOf(t, left, right, JoinAnti)
	rows = drain(t, anti)
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 3 {
		t.Fatalf("anti = %v", rows)
	}
}

func TestMergeJoinEmptyInputs(t *testing.T) {
	if rows := drain(t, mergeJoinOf(t, nil, sortedRows([]int64{1}, 1), JoinInner)); len(rows) != 0 {
		t.Fatal("empty left")
	}
	if rows := drain(t, mergeJoinOf(t, sortedRows([]int64{1}, 1), nil, JoinInner)); len(rows) != 0 {
		t.Fatal("empty right")
	}
	if rows := drain(t, mergeJoinOf(t, sortedRows([]int64{1, 2}, 1), nil, JoinAnti)); len(rows) != 2 {
		t.Fatal("anti with empty right keeps all")
	}
}

func TestMergeJoinNullKeys(t *testing.T) {
	left := sortedRows([]int64{1, 2}, 1)
	left[0][0] = sqltypes.Null // NULL sorts first, preserving order
	right := sortedRows([]int64{2}, 1)
	if rows := drain(t, mergeJoinOf(t, left, right, JoinInner)); len(rows) != 1 {
		t.Fatalf("inner with null = %d", len(rows))
	}
	if rows := drain(t, mergeJoinOf(t, left, right, JoinAnti)); len(rows) != 1 {
		t.Fatalf("anti with null = %d rows", len(rows))
	}
}

func TestMergeJoinResidual(t *testing.T) {
	l := NewValues(testSchema("L"), sortedRows([]int64{1, 2}, 2))
	r := NewValues(testSchema("R"), sortedRows([]int64{1, 2}, 2))
	mj := NewMergeJoin(l, r, []int{0}, []int{0}, nil, JoinInner)
	mj.Residual = compile(t, "L.name = R.name", mj.Schema())
	rows := drain(t, mj)
	// Per key: 2x2 pairs, residual keeps name-equal -> 2; two keys -> 4.
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestQuickMergeEqualsHash property-tests merge join against hash join on
// random sorted multisets.
func TestQuickMergeEqualsHash(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randKeys := func() []int64 {
			n := rng.Intn(30)
			out := make([]int64, n)
			for i := range out {
				out[i] = int64(rng.Intn(12))
			}
			return out
		}
		lrows := sortedRows(randKeys(), 1+rng.Intn(2))
		rrows := sortedRows(randKeys(), 1+rng.Intn(2))
		for _, kind := range []JoinKind{JoinInner, JoinSemi, JoinAnti} {
			var mjRows, hjRows []sqltypes.Row
			{
				mj := mergeJoinOf(t, lrows, rrows, kind)
				res, err := Run(mj, ctx(), 0)
				if err != nil {
					return false
				}
				mjRows = res.Rows
			}
			{
				l := NewValues(testSchema("L"), lrows)
				r := NewValues(testSchema("R"), rrows)
				hj := NewHashJoin(l, r, []int{0}, []int{0}, nil, kind)
				res, err := Run(hj, ctx(), 0)
				if err != nil {
					return false
				}
				hjRows = res.Rows
			}
			if !sameMultiset(mjRows, hjRows) {
				t.Logf("seed %d kind %d: merge %d rows, hash %d rows", seed, kind, len(mjRows), len(hjRows))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func sameMultiset(a, b []sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, r := range a {
		count[sqltypes.RowKey(r)]++
	}
	for _, r := range b {
		count[sqltypes.RowKey(r)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func BenchmarkMergeVsHashJoin(b *testing.B) {
	keys := make([]int64, 20000)
	for i := range keys {
		keys[i] = int64(i)
	}
	lrows := sortedRows(keys, 1)
	rrows := sortedRows(keys, 1)
	lSchema, rSchema := testSchema("L"), testSchema("R")
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mj := NewMergeJoin(NewValues(lSchema, lrows), NewValues(rSchema, rrows), []int{0}, []int{0}, nil, JoinInner)
			if _, err := Run(mj, &EvalContext{}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hj := NewHashJoin(NewValues(lSchema, lrows), NewValues(rSchema, rrows), []int{0}, []int{0}, nil, JoinInner)
			if _, err := Run(hj, &EvalContext{}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
