package sqltypes

import "slices"

// This file defines the columnar batch layout the vectorized executor runs
// on. The storage engine is row-major (stored rows are []Value), so the
// design is late-materializing: a ColBatch usually starts life as a window
// of row references straight off a B+-tree leaf walk, and individual
// columns are transposed into typed vectors only when a kernel touches
// them. Predicates narrow a batch by refining its selection vector —
// survivors are carried as indexes, never copied — and purely columnar
// batches (no row backing) appear where an operator produces columns
// directly, e.g. a projection of column references.
//
// Ownership contract (extends the Batch contract): a *ColBatch returned by
// a producer is read-only for the consumer and valid only until the
// consumer's next call into the producer (NextVec or Close).
// The selection vector and any materialized column vectors are owned by
// the producer and may be overwritten on the next call; rows reachable
// through the batch are shared and immutable, as everywhere in the
// executor. Consumers that need data beyond the validity window must copy
// it out (AppendRows copies row headers; the rows themselves stay valid
// forever).

// Vec is one column of a ColBatch: up to n values of a single kind stored
// in a typed array, with NULLs tracked in a side slice. Columns whose
// values do not share one kind degrade to the Any representation, which
// keeps kernels correct (value-at-a-time) without losing the
// column-at-a-time loop structure.
type Vec struct {
	// Kind is the common kind of all non-NULL values, or KindNull when the
	// column is mixed-kind (then Any holds the values verbatim).
	Kind Kind
	// Null[i] reports whether value i is NULL. Nil when no value is NULL.
	Null []bool
	// I64 holds KindInt values, KindBool as 0/1, and KindTime as
	// nanoseconds since the Unix epoch.
	I64 []int64
	// F64 holds KindFloat values.
	F64 []float64
	// Str holds KindString values.
	Str []string
	// Any is the fallback representation for mixed-kind columns.
	Any []Value

	n int
	// nullBuf retains the null-lane backing array while Null is nil (Null
	// must be exactly nil when no value is NULL), so nullable columns stay
	// allocation-free across batches.
	nullBuf []bool
}

// Len returns the number of values in the vector.
func (v *Vec) Len() int { return v.n }

// IsNull reports whether value i is NULL.
func (v *Vec) IsNull(i int) bool { return v.Null != nil && v.Null[i] }

// Value reconstructs value i. It is the slow accessor — kernels should
// switch on Kind and read the typed array directly.
func (v *Vec) Value(i int) Value {
	if v.IsNull(i) {
		return Null
	}
	switch v.Kind {
	case KindInt:
		return Value{kind: KindInt, i: v.I64[i]}
	case KindBool:
		return Value{kind: KindBool, i: v.I64[i]}
	case KindTime:
		return Value{kind: KindTime, i: v.I64[i]}
	case KindFloat:
		return NewFloat(v.F64[i])
	case KindString:
		return Value{kind: KindString, s: v.Str[i]}
	default:
		return v.Any[i]
	}
}

// reset prepares the vector to hold n values of the given kind, reusing
// backing arrays across batches.
func (v *Vec) reset(kind Kind, n int) {
	v.Kind = kind
	v.n = n
	v.dropNulls()
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
	v.Any = v.Any[:0]
}

// dropNulls clears the null lane, stashing its backing array in nullBuf so
// the next batch with NULLs reuses it instead of reallocating.
func (v *Vec) dropNulls() {
	if v.Null != nil {
		v.nullBuf = v.Null[:0]
		v.Null = nil
	}
}

// FillFromRows transposes column col of rows into the vector: the gather of
// every row in order.
func (v *Vec) FillFromRows(rows Batch, col int) { v.GatherFromRows(rows, nil, col) }

// Append adds one value to the vector, choosing the typed representation
// from the first non-NULL value and degrading to Any on a kind mismatch (or
// when the column leads with NULLs, where no kind can be committed yet).
// Producers that build columns incrementally — join output gathering, for
// example — pair this with ColBatch.BuildCol to reuse backing arrays across
// batches.
func (v *Vec) Append(val Value) {
	if v.n > 0 && v.Kind == KindNull {
		// Any mode: values land verbatim.
		v.Any = append(v.Any, val)
		v.n++
		return
	}
	if val.kind == KindNull {
		if v.n == 0 {
			v.Any = append(v.Any, val)
			v.n++
			return
		}
		if v.Null == nil {
			v.Null = growNulls(v.nullBuf, v.n)
		}
		v.Null = append(v.Null, true)
		v.appendZero(v.Kind)
		v.n++
		return
	}
	if v.n == 0 {
		v.Kind = val.kind
	}
	if val.kind != v.Kind {
		v.migrateToAny()
		v.Any = append(v.Any, val)
		v.n++
		return
	}
	if v.Null != nil {
		v.Null = append(v.Null, false)
	}
	switch v.Kind {
	case KindInt, KindBool, KindTime:
		v.I64 = append(v.I64, val.i)
	case KindFloat:
		v.F64 = append(v.F64, val.f64())
	case KindString:
		v.Str = append(v.Str, val.s)
	}
	v.n++
}

// GatherFromRows transposes column col of the rows selected by idxs (every
// row in order when idxs is nil) into the vector: scans transpose the column
// a kernel touches, joins gather their output columns. The column kind is
// sniffed from the first non-NULL value (a prepass that normally inspects one
// row). A column without NULLs whose values all share that kind — the common
// case — is copied by one typed loop; NULLs are tracked in the side lane and
// a kind mismatch degrades the whole column to Any. Backing arrays are reused
// across calls.
func (v *Vec) GatherFromRows(rows Batch, idxs []int32, col int) {
	n := len(rows)
	if idxs != nil {
		n = len(idxs)
	}
	v.reset(KindNull, n)
	kind := KindNull
	for k := 0; k < n && kind == KindNull; k++ {
		kind = rows[at(idxs, k)][col].kind
	}
	if kind == KindNull {
		// All-NULL (or empty) column: represent via Any.
		for i := 0; i < n; i++ {
			v.Any = append(v.Any, Null)
		}
		return
	}
	v.Kind = kind
	if v.gatherTyped(rows, idxs, col, n) {
		return
	}
	for k := 0; k < n; k++ {
		val := rows[at(idxs, k)][col]
		if val.kind == KindNull {
			if v.Null == nil {
				v.Null = growNulls(v.nullBuf, k)
			}
			v.Null = append(v.Null, true)
			v.appendZero(kind)
			continue
		}
		if val.kind != kind {
			// Mixed kinds: rebuild all values verbatim.
			v.reset(KindNull, n)
			for k := 0; k < n; k++ {
				v.Any = append(v.Any, rows[at(idxs, k)][col])
			}
			return
		}
		if v.Null != nil {
			v.Null = append(v.Null, false)
		}
		switch kind {
		case KindInt, KindBool, KindTime:
			v.I64 = append(v.I64, val.i)
		case KindFloat:
			v.F64 = append(v.F64, val.f64())
		case KindString:
			v.Str = append(v.Str, val.s)
		}
	}
}

// gatherTyped is GatherFromRows' fast path: it copies the column into the
// lane of v.Kind and reports success, or stops at the first value of another
// kind (a NULL included) and reports false with the lanes still empty.
func (v *Vec) gatherTyped(rows Batch, idxs []int32, col, n int) bool {
	k := 0
	switch v.Kind {
	case KindFloat:
		out := slices.Grow(v.F64, n)[:n]
		for ; k < n; k++ {
			val := &rows[at(idxs, k)][col]
			if val.kind != KindFloat {
				break
			}
			out[k] = val.f64()
		}
		v.F64 = out[:0]
		if k == n {
			v.F64 = out
		}
	case KindString:
		out := slices.Grow(v.Str, n)[:n]
		for ; k < n; k++ {
			val := &rows[at(idxs, k)][col]
			if val.kind != KindString {
				break
			}
			out[k] = val.s
		}
		v.Str = out[:0]
		if k == n {
			v.Str = out
		}
	default:
		out := slices.Grow(v.I64, n)[:n]
		for ; k < n; k++ {
			val := &rows[at(idxs, k)][col]
			if val.kind != v.Kind {
				break
			}
			out[k] = val.i
		}
		v.I64 = out[:0]
		if k == n {
			v.I64 = out
		}
	}
	return k == n
}

// GatherFrom fills the vector with src's values at idxs — the
// vector-to-vector counterpart of GatherFromRows, for producers whose
// source column is already transposed (the hash join transposes its build
// side once per Open and gathers from it for every output batch). Typed
// lanes copy array elements directly, skipping the per-value kind dispatch.
func (v *Vec) GatherFrom(src *Vec, idxs []int32) {
	n := len(idxs)
	if src.Kind == KindNull {
		// Any-mode or all-NULL source: values land verbatim.
		v.reset(KindNull, n)
		for _, r := range idxs {
			v.Any = append(v.Any, src.Any[r])
		}
		return
	}
	v.reset(src.Kind, n)
	switch src.Kind {
	case KindInt, KindBool, KindTime:
		for _, r := range idxs {
			v.I64 = append(v.I64, src.I64[r])
		}
	case KindFloat:
		for _, r := range idxs {
			v.F64 = append(v.F64, src.F64[r])
		}
	case KindString:
		for _, r := range idxs {
			v.Str = append(v.Str, src.Str[r])
		}
	}
	if src.Null != nil {
		nulls := v.nullBuf[:0]
		for _, r := range idxs {
			nulls = append(nulls, src.Null[r])
		}
		v.Null = nulls
	}
}

// migrateToAny rebuilds the vector's values in the Any representation when
// an Append reveals the column is mixed-kind.
func (v *Vec) migrateToAny() {
	any := v.Any[:0]
	for i := 0; i < v.n; i++ {
		any = append(any, v.Value(i))
	}
	v.Kind = KindNull
	v.dropNulls()
	v.I64, v.F64, v.Str = v.I64[:0], v.F64[:0], v.Str[:0]
	v.Any = any
}

func (v *Vec) appendZero(kind Kind) {
	switch kind {
	case KindInt, KindBool, KindTime:
		v.I64 = append(v.I64, 0)
	case KindFloat:
		v.F64 = append(v.F64, 0)
	case KindString:
		v.Str = append(v.Str, "")
	}
}

// growNulls returns a null slice of length n (all false), reusing capacity.
func growNulls(nulls []bool, n int) []bool {
	nulls = nulls[:0]
	for i := 0; i < n; i++ {
		nulls = append(nulls, false)
	}
	return nulls
}

// ColBatch is a columnar batch with a selection vector. Len counts the
// rows physically present; Sel, when non-nil, lists the indexes of the
// rows that are logically active (in order). Operators narrow a batch by
// shrinking Sel instead of copying survivors.
type ColBatch struct {
	// Rows is the optional row-major backing: scans emit leaf windows here
	// and columns are transposed on demand. Nil for purely columnar
	// batches.
	Rows Batch
	// Sel lists active row indexes in ascending order; nil means all Len()
	// rows are active.
	Sel []int32

	n, width int
	// cols and colOK are allocated on first column access: a row-backed
	// batch that is only forwarded or read through the row view (a point
	// read crossing Project, SwitchUnion and Limit) never pays for them.
	cols  []Vec
	colOK []bool
}

// ResetRows (re)initializes the batch around a row window of the given
// arity, invalidating any materialized columns and clearing the selection.
// Column vectors and bookkeeping are reused across calls.
func (b *ColBatch) ResetRows(rows Batch, width int) { b.reset(rows, len(rows), width) }

// ResetCols (re)initializes the batch as purely columnar with the given
// width and logical length; columns must then be set with SetCol or built
// with BuildCol.
func (b *ColBatch) ResetCols(width, n int) { b.reset(nil, n, width) }

func (b *ColBatch) reset(rows Batch, n, width int) {
	b.Rows, b.n, b.width, b.Sel = rows, n, width, nil
	ok := b.colOK[:cap(b.colOK)]
	for i := range ok {
		ok[i] = false
	}
}

// vec returns column j's slot, sizing the vector bookkeeping to the batch
// width on first use.
func (b *ColBatch) vec(j int) *Vec {
	if len(b.cols) != b.width {
		if cap(b.cols) < b.width {
			b.cols = make([]Vec, b.width)
			b.colOK = make([]bool, b.width)
		}
		b.cols, b.colOK = b.cols[:b.width], b.colOK[:b.width]
	}
	return &b.cols[j]
}

// Width returns the number of columns.
func (b *ColBatch) Width() int { return b.width }

// Len returns the number of physical rows (before selection).
func (b *ColBatch) Len() int { return b.n }

// NumActive returns the number of logically active rows.
func (b *ColBatch) NumActive() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Col returns column j, transposing it from the row backing on first
// access. The returned vector covers all Len() rows; kernels apply Sel
// themselves.
func (b *ColBatch) Col(j int) *Vec {
	v := b.vec(j)
	if !b.colOK[j] {
		v.FillFromRows(b.Rows, j)
		b.colOK[j] = true
	}
	return v
}

// BuildCol returns column j's vector emptied for incremental Appends,
// reusing its backing arrays. The caller must append exactly Len() values
// before the batch is handed to a consumer.
func (b *ColBatch) BuildCol(j int) *Vec {
	v := b.vec(j)
	v.reset(KindNull, 0)
	b.colOK[j] = true
	return v
}

// SetCol installs a materialized vector as column j (purely columnar
// producers). The vector is copied by value; its backing arrays are shared.
func (b *ColBatch) SetCol(j int, v *Vec) {
	*b.vec(j) = *v
	b.colOK[j] = true
}

// Row returns physical row i (an index already resolved through Sel by the
// caller). With a row backing this is a zero-copy reference; a purely
// columnar batch assembles the row in *scratch, which the caller reuses from
// row to row — the result is then valid only until the next call.
func (b *ColBatch) Row(i int, scratch *Row) Row {
	if b.Rows != nil {
		return b.Rows[i]
	}
	if cap(*scratch) < b.width {
		*scratch = make(Row, 0, b.width)
	}
	out := (*scratch)[:0]
	for j := 0; j < b.width; j++ {
		out = append(out, b.Col(j).Value(i))
	}
	*scratch = out
	return out
}

// AppendRows appends every active row to dst and returns it. Row-backed
// batches append shared row references (header copies only); purely
// columnar batches materialize fresh rows carved out of one arena per call
// (never reused: emitted rows stay valid forever), filled one column at a
// time by a typed loop.
func (b *ColBatch) AppendRows(dst Batch) Batch {
	if b.Rows != nil {
		if b.Sel == nil {
			return append(dst, b.Rows...)
		}
		for _, i := range b.Sel {
			dst = append(dst, b.Rows[i])
		}
		return dst
	}
	w, active := b.width, b.NumActive()
	if active == 0 {
		return dst
	}
	arena := make([]Value, active*w)
	for k := 0; k < active; k++ {
		dst = append(dst, Row(arena[k*w:(k+1)*w:(k+1)*w]))
	}
	for j := 0; j < w; j++ {
		b.Col(j).scatter(arena[j:], w, b.Sel, active)
	}
	return dst
}

// scatter writes the vector's values at sel (its first n values when sel is
// nil) into out at stride w: one column of an arena of n rows. The kind
// switch runs once per column; NULL lanes keep the arena's zero Value.
func (v *Vec) scatter(out []Value, w int, sel []int32, n int) {
	switch v.Kind {
	case KindInt, KindBool, KindTime:
		for k := 0; k < n; k++ {
			if i := at(sel, k); !v.IsNull(i) {
				out[k*w] = Value{kind: v.Kind, i: v.I64[i]}
			}
		}
	case KindFloat:
		for k := 0; k < n; k++ {
			if i := at(sel, k); !v.IsNull(i) {
				out[k*w] = NewFloat(v.F64[i])
			}
		}
	case KindString:
		for k := 0; k < n; k++ {
			if i := at(sel, k); !v.IsNull(i) {
				out[k*w] = Value{kind: KindString, s: v.Str[i]}
			}
		}
	default:
		for k := 0; k < n; k++ {
			out[k*w] = v.Any[at(sel, k)]
		}
	}
}

// at resolves position k of a selection to a physical index; a nil
// selection is the identity.
func at(sel []int32, k int) int {
	if sel == nil {
		return k
	}
	return int(sel[k])
}
