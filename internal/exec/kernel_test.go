package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// BenchmarkKernel times the typed comparison loops on one leaf's worth of
// uniformly random values (255 rows per lane): each shape once, `>` at
// ~2 % and ~50 % selectivity, over every row and over a listed half of them.
// The loops have no data-dependent branch, so a selectivity costs what
// another does; ns/row is ns/op over the rows a run tests.
func BenchmarkKernel(b *testing.B) {
	const n = 255
	rng := rand.New(rand.NewSource(1))
	var cb sqltypes.ColBatch
	cb.ResetCols(4, n)
	f, g, i, s := cb.BuildCol(0), cb.BuildCol(1), cb.BuildCol(2), cb.BuildCol(3)
	for r := 0; r < n; r++ {
		f.Append(sqltypes.NewFloat(rng.Float64()))
		g.Append(sqltypes.NewFloat(rng.Float64()))
		i.Append(sqltypes.NewInt(rng.Int63n(100)))
		s.Append(sqltypes.NewString(fmt.Sprintf("customer#%03d", rng.Intn(100))))
	}
	half := make([]int32, 0, n)
	for r := int32(0); r < n; r += 2 {
		half = append(half, r)
	}
	schema := exec.NewSchema(exec.Col{Binding: "t", Name: "f"}, exec.Col{Binding: "t", Name: "g"},
		exec.Col{Binding: "t", Name: "i"}, exec.Col{Binding: "t", Name: "s"})
	ctx := &exec.EvalContext{Now: exec.TestNow}
	for _, c := range []struct {
		name, where string
		cand        []int32
	}{
		{"float-gt-2pct", "f > 0.98", nil},
		{"float-gt-50pct", "f > 0.5", nil},
		{"float-gt-50pct-listed", "f > 0.5", half},
		{"float-le-50pct", "f <= 0.5", nil},
		{"float-eq", "f = 0.5", nil},
		{"float-between-50pct", "f BETWEEN 0.25 AND 0.75", nil},
		{"int-lt-50pct", "i < 50", nil},
		{"int-eq", "i = 7", nil},
		{"varchar-ne", "s <> 'customer#007'", nil},
		{"float-col-lt-col", "f < g", nil},
	} {
		sel, err := sqlparser.ParseSelect("SELECT 1 FROM t WHERE " + c.where)
		if err != nil {
			b.Fatal(err)
		}
		k, ok := exec.TestCompileKernel(sel.Where, schema)
		if !ok {
			b.Fatalf("no kernel for %s", c.where)
		}
		rows := n
		if c.cand != nil {
			rows = len(c.cand)
		}
		b.Run(c.name, func(b *testing.B) {
			dst := make([]int32, 0, n)
			for it := 0; it < b.N; it++ {
				if dst, err = k(ctx, &cb, c.cand, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		})
	}
}
