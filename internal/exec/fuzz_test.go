package exec_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// fuzzVals is the palette fuzzed rows and constants draw from: NULL, the
// values kernels special-case (NaN, ±0, an integer float64 cannot hold, INT
// and FLOAT of the same number) and one value of every other kind. 2^53 − 1,
// an INT that converts to float64 exactly (2^53 + 1 does not), comes last so
// that the lanes below keep their ranges and the committed seeds their
// meaning.
var fuzzVals = []sqltypes.Value{
	sqltypes.Null,
	sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewInt(-3), sqltypes.NewInt(1<<53 + 1),
	sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(1), sqltypes.NewFloat(1.5),
	sqltypes.NewFloat(2), sqltypes.NewFloat(1 << 53), sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)),
	sqltypes.NewString(""), sqltypes.NewString("a"), sqltypes.NewString("b"),
	sqltypes.NewBool(true), sqltypes.NewTime(time.Unix(1, 0)),
	sqltypes.NewInt(1<<53 - 1),
}

// fuzzLanes are the value ranges of fuzzVals a column mostly draws from, so
// that typed vectors (and their NULL lanes) come up as often as mixed ones.
var fuzzLanes = [][2]int{{1, 6}, {6, 15}, {15, 18}, {0, len(fuzzVals)}, {1, 15}}

// fuzzLaneKinds is the kind a column drawing from a lane declares: a DOUBLE
// column may hold INTs, as a table's does, and one of every kind declares
// none.
var fuzzLaneKinds = map[[2]int]sqltypes.Kind{
	{1, 6}: sqltypes.KindInt, {6, 15}: sqltypes.KindFloat, {15, 18}: sqltypes.KindString, {1, 15}: sqltypes.KindFloat,
}

var fuzzSchema = exec.NewSchema(
	exec.Col{Binding: "t", Name: "a"}, exec.Col{Binding: "t", Name: "b"}, exec.Col{Binding: "t", Name: "c"})

var fuzzOps = []sqlparser.BinOp{sqlparser.OpEQ, sqlparser.OpNE, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE}

// fuzzInput reads decisions off the fuzzer's bytes; an exhausted input reads
// zeros.
type fuzzInput struct{ data []byte }

func (in *fuzzInput) next(n int) int {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return int(b) % n
}

func (in *fuzzInput) col() sqlparser.Expr {
	return &sqlparser.ColumnRef{Table: "t", Column: fuzzSchema.Cols[in.next(3)].Name}
}

// lit draws a constant. Where it draws the palette's timestamp, one more
// decision makes it the timestamp itself, GETDATE(), or GETDATE() minus or
// plus a constant: a currency guard's `ts > GETDATE() - B`. (No committed
// seed from before the clock forms draws the timestamp as a constant.)
func (in *fuzzInput) lit() sqlparser.Expr {
	v := fuzzVals[in.next(len(fuzzVals))]
	if v.Kind() != sqltypes.KindTime {
		return &sqlparser.Literal{Val: v}
	}
	now := &sqlparser.FuncExpr{Name: "GETDATE"}
	switch in.next(4) {
	case 1:
		return now
	case 2:
		return &sqlparser.BinaryExpr{Op: sqlparser.OpSub, Left: now, Right: in.lit()}
	case 3:
		return &sqlparser.BinaryExpr{Op: sqlparser.OpAdd, Left: now, Right: in.lit()}
	}
	return &sqlparser.Literal{Val: v}
}

// fuzzNow is GETDATE() in a fuzzed predicate: one second after the palette's
// timestamp, so GETDATE() - 1 meets it.
var fuzzNow = time.Unix(2, 0).UTC()

// pred draws a predicate of a shape the typed kernels take: a comparison of a
// column with a constant (either side) or with a column, BETWEEN constants,
// or an AND of two such.
func (in *fuzzInput) pred(depth int) sqlparser.Expr {
	switch shape := in.next(5); {
	case shape == 0:
		return &sqlparser.BinaryExpr{Op: fuzzOps[in.next(6)], Left: in.col(), Right: in.lit()}
	case shape == 1:
		return &sqlparser.BinaryExpr{Op: fuzzOps[in.next(6)], Left: in.lit(), Right: in.col()}
	case shape == 2:
		return &sqlparser.BinaryExpr{Op: fuzzOps[in.next(6)], Left: in.col(), Right: in.col()}
	case shape == 3 || depth == 0:
		return &sqlparser.BetweenExpr{Expr: in.col(), Lo: in.lit(), Hi: in.lit()}
	default:
		return &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, Left: in.pred(depth - 1), Right: in.pred(depth - 1)}
	}
}

// FuzzKernel holds the typed kernels CompilePred picks for a predicate's batch
// form, and the lifted row predicate it falls back to, to the scalar Compiled
// predicate.
// One input is a predicate, a batch of rows and a candidate list; each
// kernel runs over the batch row-backed and purely columnar, with the
// candidates nil (all rows), listed, and empty, and with dst nil, separate
// and aliasing cand. Where the scalar predicate evaluates every candidate
// without error the kernel must select exactly its TRUE rows, in order, and
// never answer "none" with a nil slice; a kernel error must be one the scalar
// predicate raises on some candidate too. (The converse is not required: an
// AND kernel never evaluates its right side on rows its left side left
// NULL.) With the columns' kinds declared, a predicate that does not bind
// (exec.Bind) compiles in neither form.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 1, 8, 9, 1, 1, 6, 7, 8, 12, 0, 9, 10, 5, 5, 5}) // b > 1.0 over a FLOAT column with ±0, NaN, NULL
	f.Add([]byte{3, 0, 1, 3, 7, 0, 0, 1, 2, 3, 4, 0, 5, 2, 2})         // a BETWEEN 1 AND -3 style, INT lane
	f.Add([]byte{4, 0, 2, 0, 17, 2, 1, 1, 6, 9, 2, 2, 16, 17, 0, 15})  // AND of a string and a numeric test
	f.Add([]byte{2, 5, 0, 1, 12, 3, 3, 1, 8, 12, 19, 18, 0, 0, 7, 7})  // a >= b over mixed-kind columns
	f.Add([]byte{1, 1, 12, 2, 20, 1, 4, 12, 12, 6, 7, 13, 14, 0, 3})   // NaN <> c
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data: data}
		expr := in.pred(2)
		n := in.next(40)
		lanes := [3][2]int{fuzzLanes[in.next(len(fuzzLanes))], fuzzLanes[in.next(len(fuzzLanes))], fuzzLanes[in.next(len(fuzzLanes))]}
		rows := make(sqltypes.Batch, n)
		for i := range rows {
			rows[i] = make(sqltypes.Row, 3)
			for j, lane := range lanes {
				if v := in.next(16); v == 0 {
					rows[i][j] = sqltypes.Null
				} else if v == 1 {
					rows[i][j] = fuzzVals[in.next(len(fuzzVals))]
				} else {
					rows[i][j] = fuzzVals[lane[0]+in.next(lane[1]-lane[0])]
				}
			}
		}
		listed := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if in.next(3) != 0 {
				listed = append(listed, int32(i))
			}
		}
		// A last 2 (mod 3) declares each column's kind, as a table does: its
		// lane's, and a value that does not fit it is NULL. (The committed
		// seeds of undeclared columns end before it, or read 1 there.)
		schema := fuzzSchema
		if in.next(3) == 2 {
			schema = exec.NewSchema(slices.Clone(fuzzSchema.Cols)...)
			for j, lane := range lanes {
				schema.Cols[j].Kind = fuzzLaneKinds[lane]
				for _, r := range rows {
					if !exec.Comparable(schema.Cols[j].Kind, r[j].Kind()) {
						r[j] = sqltypes.Null
					}
				}
			}
		}
		scalar, err := exec.Compile(expr, schema)
		if _, bindErr := exec.Bind(expr, schema); bindErr != nil {
			// A declared kind and a constant (or column) it cannot meet:
			// neither form of the predicate compiles.
			if _, predErr := exec.CompilePred(expr, schema); err == nil || predErr == nil {
				t.Fatalf("%s binds to %v, yet compiles: %v, %v", expr.SQL(), bindErr, err, predErr)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		kernel, ok := exec.TestCompileKernel(expr, schema)
		if !ok {
			t.Fatalf("no kernel for %s", expr.SQL())
		}

		kernels := []struct {
			name string
			run  func(*exec.EvalContext, *sqltypes.ColBatch, []int32, []int32) ([]int32, error)
		}{{"compiled", kernel}, {"lifted", exec.TestLift(scalar)}}
		ctx := &exec.EvalContext{Now: fuzzNow}
		for _, cand := range [][]int32{nil, listed, {}} {
			// The oracle: the scalar predicate over the candidates.
			var want []int32
			var scalarErr error
			for i := int32(0); int(i) < n; i++ {
				if cand != nil && !slices.Contains(cand, i) {
					continue
				}
				keep, err := exec.PredicateTrue(scalar, ctx, rows[i])
				if err != nil {
					scalarErr = err
				} else if keep {
					want = append(want, i)
				}
			}
			for _, columnar := range []bool{false, true} {
				var cb sqltypes.ColBatch
				if cb.ResetRows(rows, 3); columnar {
					cb.ResetCols(3, n)
					for j := 0; j < 3; j++ {
						v := cb.BuildCol(j)
						for _, r := range rows {
							v.Append(r[j])
						}
					}
				}
				for _, k := range kernels {
					for _, dstMode := range []string{"nil", "separate", "aliased"} {
						c := slices.Clone(cand) // the aliased run overwrites it
						var dst []int32
						switch {
						case dstMode == "separate":
							dst = make([]int32, 0, n)
						case dstMode == "aliased" && c != nil:
							dst = c[:0]
						}
						got, err := k.run(ctx, &cb, c, dst)
						where := func() string { return fmt.Sprintf("%s %s columnar=%v dst=%s", k.name, expr.SQL(), columnar, dstMode) }
						if err != nil {
							if scalarErr == nil {
								t.Fatalf("%s: kernel error %v, scalar predicate has none", where(), err)
							}
							continue
						}
						if scalarErr != nil {
							continue
						}
						if got == nil {
							t.Fatalf("%s: kernel returned a nil selection", where())
						}
						if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
							t.Fatalf("%s over %v cand %v: kernel selected %v, scalar %v", where(), rows, cand, got, want)
						}
					}
				}
			}
		}
	})
}
