package exec

import (
	"fmt"

	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// BoolKernel is a predicate compiled to run column-at-a-time: it evaluates
// over the candidate rows of a columnar batch and writes the indexes of the
// surviving rows (those where the predicate is TRUE — NULL and FALSE both
// reject, per SQL WHERE semantics) into dst, returning the filled slice.
//
// cand lists the candidate row indexes in ascending order; nil means all
// cb.Len() rows. dst may alias cand's backing array: kernels compact left
// to right, so the write position never passes the read position. Chained
// kernels (AND) exploit this to refine a selection in place.
type BoolKernel func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error)

// CompileKernel compiles an AST predicate to a column-at-a-time kernel.
// It handles the shapes that dominate pushed-down scan predicates —
// comparisons between a column and a literal (either side), column-column
// comparisons, BETWEEN over literals, and AND chains of those — and reports
// ok=false for anything else, leaving the caller on the Compiled predicate
// (lifted per row by KernelFromPredicate). Kernels mirror the row
// evaluator's semantics exactly (NULL rejects, numeric kinds compare across
// INT/FLOAT, mixed-kind comparisons outside the numeric tower are errors).
func CompileKernel(e sqlparser.Expr, schema *Schema) (BoolKernel, bool) {
	switch e := e.(type) {
	case *sqlparser.BinaryExpr:
		switch e.Op {
		case sqlparser.OpAnd:
			l, okL := CompileKernel(e.Left, schema)
			r, okR := CompileKernel(e.Right, schema)
			if !okL || !okR {
				return nil, false
			}
			return andKernel(l, r), true
		case sqlparser.OpEQ, sqlparser.OpNE, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
			if col, lit, op, ok := colLitCmp(e, schema); ok {
				return cmpLitKernel(col, op, lit), true
			}
			if lc, rc, ok := colColCmp(e, schema); ok {
				return cmpColKernel(lc, rc, e.Op), true
			}
			return nil, false
		default:
			return nil, false
		}
	case *sqlparser.BetweenExpr:
		if e.Not {
			return nil, false
		}
		col, ok := ColOrdinal(e.Expr, schema)
		if !ok {
			return nil, false
		}
		lo, okLo := litValue(e.Lo)
		hi, okHi := litValue(e.Hi)
		if !okLo || !okHi {
			return nil, false
		}
		return andKernel(cmpLitKernel(col, sqlparser.OpGE, lo), cmpLitKernel(col, sqlparser.OpLE, hi)), true
	default:
		return nil, false
	}
}

// KernelFromPredicate lifts a row-at-a-time compiled predicate into the
// kernel interface: it tests each candidate row via the batch's row view
// (zero-copy for row-backed batches). The fallback that keeps selection
// vectors flowing when a predicate has no columnar form.
func KernelFromPredicate(p Compiled) BoolKernel {
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		dst = resetSel(dst)
		var evalErr error
		forCand(cb, cand, func(i int32) bool {
			keep, err := PredicateTrue(p, ctx, cb.Row(int(i)))
			if err != nil {
				evalErr = err
				return false
			}
			if keep {
				dst = append(dst, i)
			}
			return true
		})
		if evalErr != nil {
			return nil, evalErr
		}
		return dst, nil
	}
}

// kernelFor resolves the predicate an operator filters with: the compiled
// kernel when the planner produced one, else the row predicate lifted into
// the kernel interface, else nil (no predicate).
func kernelFor(k BoolKernel, p Compiled) BoolKernel {
	if k == nil && p != nil {
		return KernelFromPredicate(p)
	}
	return k
}

// applyKernel narrows cb's selection to the active rows k accepts, reusing
// *selbuf, and reports whether any row survives. A nil kernel accepts every
// row.
func applyKernel(k BoolKernel, ctx *EvalContext, cb *sqltypes.ColBatch, selbuf *[]int32) (bool, error) {
	if k == nil {
		return true, nil
	}
	sel, err := k(ctx, cb, cb.Sel, selFor(*selbuf, cb))
	if err != nil {
		return false, err
	}
	*selbuf, cb.Sel = sel, sel
	return len(sel) > 0, nil
}

// emptySel is the canonical non-nil empty selection. Kernels must never
// return a nil slice for "no survivors": a nil candidate list means "all
// rows", so a nil result fed back into a kernel chain would re-widen the
// selection instead of keeping it empty.
var emptySel = make([]int32, 0)

// resetSel truncates a reusable selection buffer for refilling. A nil dst
// is replaced by emptySel rather than resliced: dst[:0] of nil is still
// nil, which a zero-match kernel would then return as "all rows".
func resetSel(dst []int32) []int32 {
	if dst == nil {
		return emptySel
	}
	return dst[:0]
}

// andKernel chains two kernels: the second refines the first's survivors in
// place (safe because kernels compact left to right).
func andKernel(a, b BoolKernel) BoolKernel {
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		s, err := a(ctx, cb, cand, dst)
		if err != nil {
			return nil, err
		}
		if len(s) == 0 {
			// Short-circuit: b must not see an empty selection as nil
			// (= all rows). When a was handed a nil dst and matched
			// nothing, s itself is nil — substitute the canonical empty
			// selection so callers can't misread it either.
			if s == nil {
				s = emptySel
			}
			return s, nil
		}
		return b(ctx, cb, s, s[:0])
	}
}

// colLitCmp matches `col OP literal` or `literal OP col` (flipping the
// operator for the reversed form).
func colLitCmp(e *sqlparser.BinaryExpr, schema *Schema) (col int, lit sqltypes.Value, op sqlparser.BinOp, ok bool) {
	if c, okC := ColOrdinal(e.Left, schema); okC {
		if v, okL := litValue(e.Right); okL {
			return c, v, e.Op, true
		}
	}
	if c, okC := ColOrdinal(e.Right, schema); okC {
		if v, okL := litValue(e.Left); okL {
			return c, v, flipCmp(e.Op), true
		}
	}
	return 0, sqltypes.Null, e.Op, false
}

func colColCmp(e *sqlparser.BinaryExpr, schema *Schema) (l, r int, ok bool) {
	lc, okL := ColOrdinal(e.Left, schema)
	rc, okR := ColOrdinal(e.Right, schema)
	if !okL || !okR {
		return 0, 0, false
	}
	return lc, rc, true
}

// ColOrdinal reports whether e is a bare reference to a column of schema,
// and that column's ordinal. Planners use it to mark projections as pure
// gathers and join keys as closure-free.
func ColOrdinal(e sqlparser.Expr, schema *Schema) (int, bool) {
	ref, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return 0, false
	}
	idx := schema.Lookup(ref.Table, ref.Column)
	if idx < 0 {
		return 0, false
	}
	return idx, true
}

func litValue(e sqlparser.Expr) (sqltypes.Value, bool) {
	lit, ok := e.(*sqlparser.Literal)
	if !ok {
		return sqltypes.Null, false
	}
	return lit.Val, true
}

// flipCmp mirrors a comparison operator for swapped operands.
func flipCmp(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLT:
		return sqlparser.OpGT
	case sqlparser.OpLE:
		return sqlparser.OpGE
	case sqlparser.OpGT:
		return sqlparser.OpLT
	case sqlparser.OpGE:
		return sqlparser.OpLE
	default:
		return op // EQ and NE are symmetric
	}
}

// cmpTrue converts a three-way comparison to the operator's truth value.
func cmpTrue(op sqlparser.BinOp, c int) bool {
	switch op {
	case sqlparser.OpEQ:
		return c == 0
	case sqlparser.OpNE:
		return c != 0
	case sqlparser.OpLT:
		return c < 0
	case sqlparser.OpLE:
		return c <= 0
	case sqlparser.OpGT:
		return c > 0
	default:
		return c >= 0 // OpGE
	}
}

// cmpLitKernel compares one column against a constant. The hot shapes —
// numeric column vs numeric literal, string column vs string literal — run
// as tight typed loops over the transposed vector; everything else falls
// back to generic Value comparison with the row evaluator's type checking.
func cmpLitKernel(col int, op sqlparser.BinOp, lit sqltypes.Value) BoolKernel {
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		v := cb.Col(col)
		dst = resetSel(dst)
		if lit.IsNull() {
			return dst, nil // NULL comparison is never TRUE
		}
		switch {
		case v.Kind == sqltypes.KindInt && lit.Kind() == sqltypes.KindInt:
			li := lit.Int()
			forCand(cb, cand, func(i int32) bool {
				if v.IsNull(int(i)) {
					return true
				}
				if cmpTrue(op, cmp3(v.I64[i], li)) {
					dst = append(dst, i)
				}
				return true
			})
		case (v.Kind == sqltypes.KindInt || v.Kind == sqltypes.KindFloat) && lit.IsNumeric():
			// Mixed INT/FLOAT comparisons go through float64, matching
			// Value.Compare.
			lf := lit.Float()
			isInt := v.Kind == sqltypes.KindInt
			forCand(cb, cand, func(i int32) bool {
				if v.IsNull(int(i)) {
					return true
				}
				var f float64
				if isInt {
					f = float64(v.I64[i])
				} else {
					f = v.F64[i]
				}
				if cmpTrue(op, cmp3(f, lf)) {
					dst = append(dst, i)
				}
				return true
			})
		case v.Kind == sqltypes.KindString && lit.Kind() == sqltypes.KindString:
			ls := lit.Str()
			forCand(cb, cand, func(i int32) bool {
				if v.IsNull(int(i)) {
					return true
				}
				if cmpTrue(op, cmp3(v.Str[i], ls)) {
					dst = append(dst, i)
				}
				return true
			})
		default:
			var evalErr error
			forCand(cb, cand, func(i int32) bool {
				val := v.Value(int(i))
				if val.IsNull() {
					return true
				}
				if err := comparableValues(val, lit); err != nil {
					evalErr = err
					return false
				}
				if cmpTrue(op, val.Compare(lit)) {
					dst = append(dst, i)
				}
				return true
			})
			if evalErr != nil {
				return nil, evalErr
			}
		}
		return dst, nil
	}
}

// cmpColKernel compares two columns of the same batch. Typed loops cover
// same-kind numeric columns; the generic path handles the rest with the row
// evaluator's type checking.
func cmpColKernel(lc, rc int, op sqlparser.BinOp) BoolKernel {
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		l, r := cb.Col(lc), cb.Col(rc)
		dst = resetSel(dst)
		switch {
		case l.Kind == sqltypes.KindInt && r.Kind == sqltypes.KindInt:
			forCand(cb, cand, func(i int32) bool {
				if l.IsNull(int(i)) || r.IsNull(int(i)) {
					return true
				}
				if cmpTrue(op, cmp3(l.I64[i], r.I64[i])) {
					dst = append(dst, i)
				}
				return true
			})
		case l.Kind == sqltypes.KindFloat && r.Kind == sqltypes.KindFloat:
			forCand(cb, cand, func(i int32) bool {
				if l.IsNull(int(i)) || r.IsNull(int(i)) {
					return true
				}
				if cmpTrue(op, cmp3(l.F64[i], r.F64[i])) {
					dst = append(dst, i)
				}
				return true
			})
		default:
			var evalErr error
			forCand(cb, cand, func(i int32) bool {
				lv, rv := l.Value(int(i)), r.Value(int(i))
				if lv.IsNull() || rv.IsNull() {
					return true
				}
				if err := comparableValues(lv, rv); err != nil {
					evalErr = err
					return false
				}
				if cmpTrue(op, lv.Compare(rv)) {
					dst = append(dst, i)
				}
				return true
			})
			if evalErr != nil {
				return nil, evalErr
			}
		}
		return dst, nil
	}
}

// forCand iterates the candidate indexes (all rows when cand is nil),
// stopping early when fn returns false.
func forCand(cb *sqltypes.ColBatch, cand []int32, fn func(int32) bool) {
	if cand == nil {
		n := int32(cb.Len())
		for i := int32(0); i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	for _, i := range cand {
		if !fn(i) {
			return
		}
	}
}

// cmp3 is the three-way comparison of the typed kernel loops. NaN compares
// equal to everything, as in sqltypes.Value.Compare.
func cmp3[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// comparableValues rejects cross-kind comparisons that SQL would type-error
// on; the row evaluator and the kernels share it.
func comparableValues(a, b sqltypes.Value) error {
	if a.Kind() == b.Kind() || (a.IsNumeric() && b.IsNumeric()) {
		return nil
	}
	return fmt.Errorf("exec: cannot compare %s with %s", a.Kind(), b.Kind())
}
