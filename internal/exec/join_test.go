package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// joinFixture is L(id, name, bal) ⋈ R(seq, k, v) on L.id = R.k (INT keys)
// or L.name = R.k (VARCHAR keys), set up so the three join algorithms can
// run the same join: the left rows arrive in key order, NULLs first, and the
// right side is a stored table with an index on k, whose order a merge join
// reads and whose entries an index-loop join seeks. Keys 0..4 have 0, 1, 3,
// 5 and 9 right rows — the last straddles every small batch size — and both
// sides hold NULL keys and keys without a partner. The INT keys hold a FLOAT
// 2.0 next to INT 2, so the left key column mixes NULL, INT and FLOAT and is
// read from its Any lane; among the VARCHAR keys "10" sorts between "1" and
// "2".
type joinFixture struct {
	left     []sqltypes.Row
	right    *storage.Table
	ls, rs   *exec.Schema
	lkey     int // the left key column
	residual map[string]exec.Compiled
}

func newJoinFixture(t *testing.T, kind sqltypes.Kind) *joinFixture {
	t.Helper()
	key := func(k int) sqltypes.Value { return sqltypes.NewInt(int64(k)) }
	if kind == sqltypes.KindString {
		key = func(k int) sqltypes.Value { return sqltypes.NewString(fmt.Sprint(k)) }
	}
	c := catalog.New()
	def := &catalog.Table{
		Name: "R",
		Columns: []catalog.Column{
			{Name: "seq", Type: sqltypes.KindInt, NotNull: true},
			{Name: "k", Type: kind},
			{Name: "v", Type: sqltypes.KindFloat},
		},
		PrimaryKey: []string{"seq"},
	}
	if err := c.AddTable(def); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&catalog.Index{Name: "ix_k", Table: "R", Columns: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
	f := &joinFixture{right: storage.NewTable(c.Table("R")), ls: exec.TestSchema("L")}
	f.rs = exec.NewSchema(
		exec.Col{Binding: "R", Name: "seq", Kind: sqltypes.KindInt},
		exec.Col{Binding: "R", Name: "k", Kind: kind},
		exec.Col{Binding: "R", Name: "v", Kind: sqltypes.KindFloat})
	seq := int64(0)
	add := func(k sqltypes.Value, n int) {
		for i := 0; i < n; i++ {
			seq++
			row := sqltypes.Row{sqltypes.NewInt(seq), k, sqltypes.NewFloat(float64(seq % 7))}
			if err := f.right.Replace(nil, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(sqltypes.Null, 2)
	for k, n := range []int{0, 1, 3, 5, 9} {
		add(key(k), n)
	}
	add(key(8), 2) // no left partner

	lkeys := []sqltypes.Value{sqltypes.Null, sqltypes.Null, key(0), key(1), key(1), key(2), sqltypes.NewFloat(2)} // FLOAT 2.0 joins INT 2
	if kind == sqltypes.KindString {
		lkeys = []sqltypes.Value{sqltypes.Null, sqltypes.Null, key(0), key(1), key(1), key(10), key(2), key(2)}
		f.lkey = 1
	}
	for _, k := range []int{3, 4, 4, 4, 6, 7} {
		lkeys = append(lkeys, key(k))
	}
	for n, k := range lkeys {
		row := sqltypes.Row{sqltypes.NewInt(int64(n)), sqltypes.NewString(fmt.Sprint(n % 3)), sqltypes.NewFloat(float64(n % 5))}
		row[f.lkey] = k
		f.left = append(f.left, row)
	}
	both := exec.Concat(f.ls, f.rs)
	f.residual = map[string]exec.Compiled{
		"none":     nil,
		"residual": exec.TestCompile(t, "L.bal >= R.v", both),
		"evalerr":  exec.TestCompile(t, "L.bal / 0 > R.v", both), // an error only evaluation finds
	}
	return f
}

// joins builds the same join three ways.
func (f *joinFixture) joins(residual exec.Compiled, kind exec.JoinKind) map[string]func() exec.Operator {
	left := func() exec.Operator { return exec.NewValues(f.ls, f.left) }
	right := func() exec.Operator {
		sc := exec.NewScan(f.right, f.rs)
		sc.Index = "ix_k"
		return sc
	}
	lk, rk := []int{f.lkey}, []int{1}
	return map[string]func() exec.Operator{
		"hash":      func() exec.Operator { return exec.NewHashJoin(left(), right(), lk, rk, residual, kind) },
		"merge":     func() exec.Operator { return exec.NewMergeJoin(left(), right(), lk, rk, residual, kind) },
		"indexloop": func() exec.Operator { return exec.NewIndexLoopJoin(left(), f.right, "ix_k", f.rs, lk, residual, kind) },
	}
}

var (
	joinKinds    = map[string]exec.JoinKind{"inner": exec.JoinInner, "semi": exec.JoinSemi, "anti": exec.JoinAnti}
	joinKeyKinds = []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString}
)

// TestJoinsMatchReference runs the three joins × INT/VARCHAR keys ×
// inner/semi/anti × with and without a residual against the reference
// evaluator, at batch sizes that put a key's matches across several output
// batches, each tree run twice (a cached plan's tree is reused).
func TestJoinsMatchReference(t *testing.T) {
	for _, keyKind := range joinKeyKinds {
		f := newJoinFixture(t, keyKind)
		for kindName, kind := range joinKinds {
			for _, resName := range []string{"none", "residual"} {
				for algo, build := range f.joins(f.residual[resName], kind) {
					name := fmt.Sprintf("%s/%s/%s/%s keys", algo, kindName, resName, keyKind)
					want, err := reference(build(), &exec.EvalContext{Now: exec.TestNow})
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if kind == exec.JoinInner && resName == "none" && len(want) != 1+1+3+3+5+9+9+9 {
						t.Fatalf("%s: reference joined %d rows", name, len(want))
					}
					for _, bs := range []int{1, 2, 3, 4, 8, exec.DefaultBatchSize} {
						tree := &checked{Operator: build(), t: t, name: name}
						for run := 1; run <= 2; run++ {
							got, err := exec.Run(tree, &exec.EvalContext{Now: exec.TestNow, BatchSize: bs}, 0)
							if err != nil {
								t.Fatalf("%s bs=%d run %d: %v", name, bs, run, err)
							}
							exec.AssertSameRows(t, fmt.Sprintf("%s bs=%d run %d", name, bs, run), got.Rows, want, true)
						}
					}
				}
			}
		}
	}
}

// TestJoinResidualErrorsPropagate pins that a residual's evaluation error
// fails the query in every join and kind. The merge join's semi/anti arm
// once read an error as "no match": the anti join then returned rows on
// which the inner form of the same join failed.
func TestJoinResidualErrorsPropagate(t *testing.T) {
	for _, keyKind := range joinKeyKinds {
		f := newJoinFixture(t, keyKind)
		for kindName, kind := range joinKinds {
			for algo, build := range f.joins(f.residual["evalerr"], kind) {
				for _, bs := range []int{2, exec.DefaultBatchSize} {
					_, err := exec.Run(build(), &exec.EvalContext{Now: exec.TestNow, BatchSize: bs}, 0)
					if err == nil || !strings.Contains(err.Error(), "division by zero") {
						t.Errorf("%s/%s/%s keys bs=%d: err = %v, want the residual's division by zero", algo, kindName, keyKind, bs, err)
					}
				}
			}
		}
	}
}
