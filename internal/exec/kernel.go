package exec

import (
	"fmt"

	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// Pred is a predicate compiled once, in both forms the engine runs: Row on
// one row (the reference evaluator checks the batch form against it), and
// the batch form, which narrows a batch's selection to the rows where it is
// TRUE: compileKernel's typed kernel when it takes the predicate's shape,
// else Row lifted over the active rows. A nil *Pred accepts every row.
type Pred struct {
	Row   Compiled
	batch boolKernel
}

// CompilePred compiles a predicate against the schema into both forms.
func CompilePred(e sqlparser.Expr, schema *Schema) (*Pred, error) {
	row, err := Compile(e, schema)
	if err != nil {
		return nil, err
	}
	k, ok := compileKernel(e, schema)
	if !ok {
		k = lift(row)
	}
	return &Pred{Row: row, batch: k}, nil
}

// narrow narrows cb's selection to the active rows p accepts, reusing
// *selbuf, and reports whether any row survives.
func (p *Pred) narrow(ctx *EvalContext, cb *sqltypes.ColBatch, selbuf *[]int32) (bool, error) {
	if p == nil {
		return true, nil
	}
	sel, err := p.batch(ctx, cb, cb.Sel, selFor(*selbuf, cb))
	if err != nil {
		return false, err
	}
	*selbuf, cb.Sel = sel, sel
	return len(sel) > 0, nil
}

// boolKernel is a predicate compiled to run column-at-a-time: it evaluates
// over the candidate rows of a columnar batch and writes the indexes of the
// surviving rows (those where the predicate is TRUE — NULL and FALSE both
// reject, per SQL WHERE semantics) into dst, returning the filled slice.
//
// cand lists the candidate row indexes in ascending order; nil means all
// cb.Len() rows. dst may alias cand's backing array: kernels compact left
// to right, so the write position never passes the read position. Chained
// kernels (AND) exploit this to refine a selection in place.
type boolKernel func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error)

// compileKernel compiles an AST predicate to a column-at-a-time kernel.
// It handles the shapes that dominate pushed-down scan predicates —
// comparisons between a column and a literal (either side), column-column
// comparisons, BETWEEN over literals, and AND chains of those — and reports
// ok=false for anything else, leaving CompilePred to lift the row predicate.
// Kernels mirror the row evaluator exactly (NULL rejects, INT and FLOAT
// compare numerically, other mixed-kind comparisons are errors, BETWEEN
// orders mixed kinds by kind); see FuzzKernel.
func compileKernel(e sqlparser.Expr, schema *Schema) (boolKernel, bool) {
	switch e := e.(type) {
	case *sqlparser.BinaryExpr:
		switch e.Op {
		case sqlparser.OpAnd:
			l, okL := compileKernel(e.Left, schema)
			r, okR := compileKernel(e.Right, schema)
			if okL && okR {
				return andKernel(l, r), true
			}
		case sqlparser.OpEQ, sqlparser.OpNE, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
			if col, lit, bits, ok := colLitCmp(e, schema); ok {
				return litKernel(col, bits, lit, bitLT|bitEQ|bitGT, lit), true
			}
			lc, okL := colOrdinal(e.Left, schema)
			rc, okR := colOrdinal(e.Right, schema)
			if okL && okR {
				return colKernel(lc, rc, truthBits(e.Op)), true
			}
		}
	case *sqlparser.BetweenExpr:
		col, ok := colOrdinal(e.Expr, schema)
		lo, okLo := e.Lo.(*sqlparser.Literal)
		hi, okHi := e.Hi.(*sqlparser.Literal)
		if ok && okLo && okHi && !e.Not {
			return litKernel(col, bitEQ|bitGT, lo, bitLT|bitEQ, hi), true
		}
	}
	return nil, false
}

// lift runs a row predicate as a kernel, testing each candidate through the
// batch's row view: zero-copy for row-backed batches, the batch's scratch
// row otherwise (each scan worker narrows its own batches).
func lift(p Compiled) boolKernel {
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		dst = resetSel(dst)
		for j, n := 0, numCand(cb, cand); j < n; j++ {
			i := at(cand, j)
			keep, err := PredicateTrue(p, ctx, cb.Row(i))
			if err != nil {
				return nil, err
			}
			if keep {
				dst = append(dst, int32(i))
			}
		}
		return dst, nil
	}
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
func andKernel(a, b boolKernel) boolKernel {
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

// colLitCmp matches `col OP literal` or `literal OP col` and returns OP's
// truth bits as seen from the column: the reversed form swaps less and
// greater.
func colLitCmp(e *sqlparser.BinaryExpr, schema *Schema) (col int, lit *sqlparser.Literal, bits uint8, ok bool) {
	bits = truthBits(e.Op)
	if c, okC := colOrdinal(e.Left, schema); okC {
		if l, okL := e.Right.(*sqlparser.Literal); okL {
			return c, l, bits, true
		}
	}
	if c, okC := colOrdinal(e.Right, schema); okC {
		if l, okL := e.Left.(*sqlparser.Literal); okL {
			return c, l, bits&bitEQ | bits&bitLT<<2 | bits&bitGT>>2, true
		}
	}
	return 0, nil, 0, false
}

// colOrdinal reports whether e is a bare reference to a column of schema,
// and that column's ordinal: the column operand of a kernel.
func colOrdinal(e sqlparser.Expr, schema *Schema) (int, bool) {
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

// A comparison operator is reduced to the outcomes of a three-way compare
// it accepts: one truth bit each for less, equal and greater. The loops below
// test a bit instead of switching on the operator per row.
const (
	bitLT uint8 = 1 << iota
	bitEQ
	bitGT
)

func truthBits(op sqlparser.BinOp) uint8 {
	switch op {
	case sqlparser.OpEQ:
		return bitEQ
	case sqlparser.OpNE:
		return bitLT | bitGT
	case sqlparser.OpLT:
		return bitLT
	case sqlparser.OpLE:
		return bitLT | bitEQ
	case sqlparser.OpGT:
		return bitGT
	default:
		return bitEQ | bitGT // OpGE
	}
}

// cmpTrue converts a three-way comparison result (-1, 0, +1) to the truth
// value of an operator's bits.
func cmpTrue(bits uint8, c int) bool { return bits>>uint(c+1)&1 != 0 }

// truthTab spreads truth bits into a table indexed by cmp3's result, so a
// loop turns a comparison into 0 or 1 with one load and no branch.
func truthTab(bits uint8) [4]uint8 { return [4]uint8{bits & 1, bits >> 1 & 1, bits >> 2 & 1} }

// lane is a typed vector representation the comparison loops run on.
type lane interface{ int64 | float64 | string }

// cmp3 is the branch-free three-way compare of the typed loops: 0 for less,
// 1 for equal, 2 for greater. A NaN is neither less nor greater, so it lands
// on equal — NaN compares equal to everything, as in sqltypes.Value.Compare.
func cmp3[T lane](a, b T) uint8 {
	var lt, gt uint8
	if a < b {
		lt = 1
	}
	if a > b {
		gt = 1
	}
	return (1 + gt - lt) & 3
}

// numCand is the number of candidate rows: cand's length, or every row of cb
// when cand is nil.
func numCand(cb *sqltypes.ColBatch, cand []int32) int {
	if cand == nil {
		return cb.Len()
	}
	return len(cand)
}

// selRoom sizes dst for n indexes, so the loops below store unconditionally
// and advance the write position by the comparison's 0 or 1. Never nil.
func selRoom(dst []int32, n int) []int32 {
	if dst == nil || cap(dst) < n {
		return make([]int32, n)
	}
	return dst[:n]
}

// dropNulls compacts the NULL lanes out of a selection, in place. The typed
// loops compare a NULL lane's zero value like any other and shed it here:
// columns with NULLs are rare and this pass touches survivors only.
func dropNulls(sel []int32, null []bool) []int32 {
	if null == nil {
		return sel
	}
	k := 0
	for _, i := range sel {
		if sel[k] = i; !null[i] {
			k++
		}
	}
	return sel[:k]
}

// selLit is the column-against-constants loop, one instantiation per lane:
// it keeps candidate i when vals[i] passes both (constant, truth bits) tests
// and is not NULL. A plain comparison passes all-true bits as its second
// test; BETWEEN is the two tests in one pass. dst may alias cand: the write
// position never passes the read position.
func selLit[T lane](vals []T, null []bool, lo T, loBits uint8, hi T, hiBits uint8, cand, dst []int32) []int32 {
	loTab, hiTab := truthTab(loBits), truthTab(hiBits)
	k := 0
	if cand == nil {
		dst = selRoom(dst, len(vals))
		for i, v := range vals {
			dst[k] = int32(i)
			k += int(loTab[cmp3(v, lo)] & hiTab[cmp3(v, hi)])
		}
	} else {
		dst = selRoom(dst, len(cand))
		for _, i := range cand {
			v := vals[i]
			dst[k] = i
			k += int(loTab[cmp3(v, lo)] & hiTab[cmp3(v, hi)])
		}
	}
	return dropNulls(dst[:k], null)
}

// selCols is the column-against-column loop.
func selCols[T lane](l, r []T, lnull, rnull []bool, bits uint8, cand, dst []int32) []int32 {
	tab := truthTab(bits)
	k, n := 0, len(l)
	if cand != nil {
		n = len(cand)
	}
	dst = selRoom(dst, n)
	for j := 0; j < n; j++ {
		i := at(cand, j)
		dst[k] = int32(i)
		k += int(tab[cmp3(l[i], r[i])])
	}
	return dropNulls(dropNulls(dst[:k], lnull), rnull)
}

// litKernel compares one column against constants: col passes (lo, loBits)
// and (hi, hiBits). Columns and constants that share a lane — integers,
// floats against any numeric constant, strings — run selLit over the
// transposed vector; everything else goes value by value with the row
// evaluator's rules (a comparison type-checks, BETWEEN orders mixed kinds by
// kind without an error, as Compile's BETWEEN does). The constants are read
// per batch, so a slot literal is this execution's.
func litKernel(col int, loBits uint8, loLit *sqlparser.Literal, hiBits uint8, hiLit *sqlparser.Literal) boolKernel {
	between := hiBits != bitLT|bitEQ|bitGT
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		lo, hi := ctx.lit(loLit), ctx.lit(hiLit)
		if lo.IsNull() || hi.IsNull() {
			return resetSel(dst), nil // a NULL comparison is never TRUE
		}
		v := cb.Col(col)
		lk, hk := lo.Kind(), hi.Kind()
		// An integer constant converts once, unless it lies past 2^53 where
		// float64 cannot hold it and only Value.Compare is exact.
		lf, lok := lo.ExactFloat()
		hf, hok := hi.ExactFloat()
		switch {
		case v.Kind == sqltypes.KindInt && lk == sqltypes.KindInt && hk == sqltypes.KindInt:
			return selLit(v.I64, v.Null, lo.Int(), loBits, hi.Int(), hiBits, cand, dst), nil
		case v.Kind == sqltypes.KindFloat && lok && hok:
			return selLit(v.F64, v.Null, lf, loBits, hf, hiBits, cand, dst), nil
		case v.Kind == sqltypes.KindString && lk == sqltypes.KindString && hk == sqltypes.KindString:
			return selLit(v.Str, v.Null, lo.Str(), loBits, hi.Str(), hiBits, cand, dst), nil
		}
		dst = resetSel(dst)
		for j, n := 0, numCand(cb, cand); j < n; j++ {
			i := at(cand, j)
			val := v.Value(i)
			if val.IsNull() {
				continue
			}
			if !between {
				if err := comparableValues(val, lo); err != nil {
					return nil, err
				}
			}
			if cmpTrue(loBits, val.Compare(lo)) && cmpTrue(hiBits, val.Compare(hi)) {
				dst = append(dst, int32(i))
			}
		}
		return dst, nil
	}
}

// colKernel compares two columns of the same batch: selCols when both share
// a lane, value by value with the row evaluator's type checking otherwise.
func colKernel(lc, rc int, bits uint8) boolKernel {
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		l, r := cb.Col(lc), cb.Col(rc)
		if l.Kind == r.Kind {
			switch l.Kind {
			case sqltypes.KindInt:
				return selCols(l.I64, r.I64, l.Null, r.Null, bits, cand, dst), nil
			case sqltypes.KindFloat:
				return selCols(l.F64, r.F64, l.Null, r.Null, bits, cand, dst), nil
			case sqltypes.KindString:
				return selCols(l.Str, r.Str, l.Null, r.Null, bits, cand, dst), nil
			}
		}
		dst = resetSel(dst)
		for j, n := 0, numCand(cb, cand); j < n; j++ {
			i := at(cand, j)
			lv, rv := l.Value(i), r.Value(i)
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			if err := comparableValues(lv, rv); err != nil {
				return nil, err
			}
			if cmpTrue(bits, lv.Compare(rv)) {
				dst = append(dst, int32(i))
			}
		}
		return dst, nil
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
