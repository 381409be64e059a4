package exec

import (
	"slices"

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

// CompilePred binds a predicate against the schema (Bind, through Compile)
// and compiles it into both forms: a predicate Bind rejects has neither.
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

// Narrow narrows cb's selection to the active rows p accepts, reusing
// *selbuf, and reports whether any row survives.
func (p *Pred) Narrow(ctx *EvalContext, cb *sqltypes.ColBatch, selbuf *[]int32) (bool, error) {
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
// comparisons between a column and a constant (either side), column-column
// comparisons, BETWEEN over constants, and AND chains of those — and reports
// ok=false for anything else, leaving CompilePred to lift the row predicate.
// A constant is an expression that reads no column: a literal, or GETDATE()
// and arithmetic over it and literals, as in a currency guard's
// `ts > GETDATE() - B`; the kernel evaluates it once per batch.
// A kernel runs a typed loop where the column's lane and the constants share
// one, else the lifted row predicate, so it answers as the row evaluator does
// (NULL rejects, INT and FLOAT compare exactly); see FuzzKernel.
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
			if col, c, bits, ok := colConstCmp(e, schema); ok {
				return constKernel(col, testOf(bits), compileBound(c, schema), nil, lift(compileBound(e, schema))), true
			}
			lc, okL := colOrdinal(e.Left, schema)
			rc, okR := colOrdinal(e.Right, schema)
			if okL && okR {
				return colKernel(lc, rc, testOf(truthBits(e.Op)), lift(compileBound(e, schema))), true
			}
		}
	case *sqlparser.BetweenExpr:
		col, ok := colOrdinal(e.Expr, schema)
		if ok && constant(e.Lo) && constant(e.Hi) && !e.Not {
			return constKernel(col, testOf(bitEQ), compileBound(e.Lo, schema), compileBound(e.Hi, schema), lift(compileBound(e, schema))), true
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

// ColLitCmp matches `col OP literal` or `literal OP col`, OP a comparison,
// and returns OP's truth bits as seen from the column: the reversed form
// swaps less and greater.
func ColLitCmp(e *sqlparser.BinaryExpr, schema *Schema) (col int, lit *sqlparser.Literal, bits uint8, ok bool) {
	col, c, bits, ok := colConstCmp(e, schema)
	lit, isLit := c.(*sqlparser.Literal)
	return col, lit, bits, ok && isLit
}

// colConstCmp is ColLitCmp for any constant: `col OP c` or `c OP col`.
func colConstCmp(e *sqlparser.BinaryExpr, schema *Schema) (col int, c sqlparser.Expr, bits uint8, ok bool) {
	bits = truthBits(e.Op)
	if col, ok := colOrdinal(e.Left, schema); ok && constant(e.Right) {
		return col, e.Right, bits, true
	}
	if col, ok := colOrdinal(e.Right, schema); ok && constant(e.Left) {
		return col, e.Left, bits&bitEQ | bits&bitLT<<2 | bits&bitGT>>2, true
	}
	return 0, nil, 0, false
}

// constant reports whether e reads no column: a literal, a function
// (GETDATE(), ABS) of constants, or a negation or arithmetic over them.
func constant(e sqlparser.Expr) bool {
	switch e := e.(type) {
	case *sqlparser.Literal:
		return true
	case *sqlparser.FuncExpr:
		return !slices.ContainsFunc(e.Args, func(a sqlparser.Expr) bool { return !constant(a) })
	case *sqlparser.NegExpr:
		return constant(e.Inner)
	case *sqlparser.BinaryExpr:
		switch e.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			return constant(e.Left) && constant(e.Right)
		}
	}
	return false
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
// it accepts: one truth bit each for less, equal and greater. The row
// evaluator tests a bit of Value.Compare's result; the kernels run the
// cmpTest the bits make.
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

// cmpTest is a comparison as the loops run it, testing only < and >: a value
// is kept when it is below lo (if below is 1) or above hi (if above is 1),
// and not inverts that. An operator that holds on "equal" is the negation of
// the outcomes it rejects: `>=` is !(v < c), `=` is !(v < c) & !(v > c),
// BETWEEN is !(v < lo) & !(v > hi). A NaN is neither below nor above
// anything, so it passes exactly the operators that hold on equal — NaN
// compares equal to everything, as in sqltypes.Value.Compare.
type cmpTest struct{ below, above, not int }

func testOf(bits uint8) cmpTest {
	var t cmpTest
	if bits&bitEQ != 0 {
		bits, t.not = ^bits, 1
	}
	t.below, t.above = int(bits&bitLT), int(bits&bitGT>>2)
	return t
}

// keep is t's outcome, 0 or 1, for a value below lo or not and above hi or not.
func (t cmpTest) keep(below, above bool) int {
	return (b2i(below)&t.below | b2i(above)&t.above) ^ t.not
}

// b2i is 1 for true, 0 for false: a flag set, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// lane is a typed vector representation the comparison loops run on.
type lane interface{ int64 | float64 | string }

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

// selLit is the column-against-constants kernel of one lane: the loop of t's
// shape, then the NULL rows shed. Each loop has a form for every row of the
// lane (cand nil) and one for a candidate list, stores every index and
// advances the write position by the test's 0 or 1, so no branch depends on
// the data. dst may alias cand: the write position never passes the read
// position.
func selLit[T lane](vals []T, null []bool, lo, hi T, t cmpTest, cand, dst []int32) []int32 {
	switch {
	case t.above == 0:
		dst = selBelow(vals, lo, t.not, cand, dst)
	case t.below == 0:
		dst = selAbove(vals, hi, t.not, cand, dst)
	default:
		dst = selOutside(vals, lo, hi, t.not, cand, dst)
	}
	return dropNulls(dst, null)
}

// selBelow keeps the candidates whose value is below c (<), or with not 1
// those that are not (>=).
func selBelow[T lane](vals []T, c T, not int, cand, dst []int32) []int32 {
	k := 0
	if cand == nil {
		dst = selRoom(dst, len(vals))
		for i, v := range vals {
			dst[k] = int32(i)
			k += b2i(v < c) ^ not
		}
		return dst[:k]
	}
	dst = selRoom(dst, len(cand))
	for _, i := range cand {
		dst[k] = i
		k += b2i(vals[i] < c) ^ not
	}
	return dst[:k]
}

// selAbove keeps the candidates whose value is above c (>), or with not 1
// those that are not (<=).
func selAbove[T lane](vals []T, c T, not int, cand, dst []int32) []int32 {
	k := 0
	if cand == nil {
		dst = selRoom(dst, len(vals))
		for i, v := range vals {
			dst[k] = int32(i)
			k += b2i(v > c) ^ not
		}
		return dst[:k]
	}
	dst = selRoom(dst, len(cand))
	for _, i := range cand {
		dst[k] = i
		k += b2i(vals[i] > c) ^ not
	}
	return dst[:k]
}

// selOutside keeps the candidates whose value is below lo or above hi (<>
// with lo = hi), or with not 1 those that are neither (= with lo = hi, and
// BETWEEN).
func selOutside[T lane](vals []T, lo, hi T, not int, cand, dst []int32) []int32 {
	k := 0
	if cand == nil {
		dst = selRoom(dst, len(vals))
		for i, v := range vals {
			dst[k] = int32(i)
			k += (b2i(v < lo) | b2i(v > hi)) ^ not
		}
		return dst[:k]
	}
	dst = selRoom(dst, len(cand))
	for _, i := range cand {
		v := vals[i]
		dst[k] = i
		k += (b2i(v < lo) | b2i(v > hi)) ^ not
	}
	return dst[:k]
}

// selCols is the column-against-column loop, one for every operator: no
// workload compares two columns of a row, so it has no loop per shape.
func selCols[T lane](l, r []T, lnull, rnull []bool, t cmpTest, cand, dst []int32) []int32 {
	k, n := 0, len(l)
	if cand != nil {
		n = len(cand)
	}
	dst = selRoom(dst, n)
	for j := 0; j < n; j++ {
		i := at(cand, j)
		dst[k] = int32(i)
		k += t.keep(l[i] < r[i], l[i] > r[i])
	}
	return dropNulls(dropNulls(dst[:k], lnull), rnull)
}

// constKernel compares one column against constants: col passes t against
// lo and hi, which a comparison sets to its one constant (hi nil) and
// BETWEEN to its bounds. The constants are evaluated once per batch, so a
// slot literal is this execution's and GETDATE() its Now. Columns and
// constants that share a lane — integers, floats against any numeric
// constant, strings, timestamps — run selLit over the transposed vector;
// everything else (a NULL constant, one that fails to evaluate, an INT column
// against a FLOAT constant, a column of mixed kinds) runs the predicate's row
// form, lifted.
func constKernel(col int, t cmpTest, loC, hiC Compiled, lifted boolKernel) boolKernel {
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		lo, err := loC(ctx, nil)
		hi := lo
		if err == nil && hiC != nil {
			hi, err = hiC(ctx, nil)
		}
		if err != nil {
			return lifted(ctx, cb, cand, dst)
		}
		v := cb.Col(col)
		lk, hk := lo.Kind(), hi.Kind()
		// An integer constant converts once, unless it lies past 2^53 where
		// float64 cannot hold it and only Value.Compare is exact.
		lf, lok := lo.ExactFloat()
		hf, hok := hi.ExactFloat()
		switch {
		case v.Kind == sqltypes.KindInt && lk == sqltypes.KindInt && hk == sqltypes.KindInt:
			return selLit(v.I64, v.Null, lo.Int(), hi.Int(), t, cand, dst), nil
		case v.Kind == sqltypes.KindFloat && lok && hok:
			return selLit(v.F64, v.Null, lf, hf, t, cand, dst), nil
		case v.Kind == sqltypes.KindString && lk == sqltypes.KindString && hk == sqltypes.KindString:
			return selLit(v.Str, v.Null, lo.Str(), hi.Str(), t, cand, dst), nil
		case v.Kind == sqltypes.KindTime && lk == sqltypes.KindTime && hk == sqltypes.KindTime:
			return selLit(v.I64, v.Null, lo.Time().UnixNano(), hi.Time().UnixNano(), t, cand, dst), nil
		}
		return lifted(ctx, cb, cand, dst)
	}
}

// colKernel compares two columns of the same batch: selCols when both share
// a lane, the predicate's row form, lifted, otherwise.
func colKernel(lc, rc int, t cmpTest, lifted boolKernel) boolKernel {
	return func(ctx *EvalContext, cb *sqltypes.ColBatch, cand, dst []int32) ([]int32, error) {
		l, r := cb.Col(lc), cb.Col(rc)
		if l.Kind == r.Kind {
			switch l.Kind {
			case sqltypes.KindInt:
				return selCols(l.I64, r.I64, l.Null, r.Null, t, cand, dst), nil
			case sqltypes.KindFloat:
				return selCols(l.F64, r.F64, l.Null, r.Null, t, cand, dst), nil
			case sqltypes.KindString:
				return selCols(l.Str, r.Str, l.Null, r.Null, t, cand, dst), nil
			}
		}
		return lifted(ctx, cb, cand, dst)
	}
}
