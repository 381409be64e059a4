package sqltypes

import "slices"

// This file defines the columnar batch layout the vectorized executor runs
// on. A ColBatch is one of three things: a window of a Lanes run viewed in
// place (storage hands a scan each B+-tree leaf window this way, an index
// scan its own snapshot, and an operator the lanes it keeps its output in), a
// window of row references (a row list or a remote reply), or purely
// columnar — typed vectors the batch owns, which is what a scan copies its
// surviving rows into. Columns of a row-backed batch are transposed into
// typed vectors only when a kernel touches them. Predicates narrow a batch
// by refining its selection vector — survivors are carried as indexes, never
// copied.
//
// Ownership contract (extends the Batch contract): a *ColBatch returned by
// a producer is read-only for the consumer and valid only until the
// consumer's next call into the producer (NextVec or Close).
// The selection vector and any materialized column vectors are owned by
// the producer and may be overwritten on the next call; rows reachable
// through a row-backed batch are shared and immutable, as everywhere in the
// executor. Consumers that need data beyond the validity window must copy
// it out (AppendRows copies row headers of a row-backed batch, whose rows
// stay valid forever, and materializes the rows of any other).

// Vec is one column of a ColBatch: up to n values of a single kind stored
// in a typed array, with NULLs tracked in a side slice. Columns whose
// values do not share one kind degrade to the Any representation, which
// keeps kernels correct (value-at-a-time) without losing the
// column-at-a-time loop structure. The fields a kernel reads come first, so
// a lane header spans as few cache lines as it can.
type Vec struct {
	// Kind is the common kind of all non-NULL values, or KindNull when the
	// column is mixed-kind (then Any holds the values verbatim).
	Kind Kind
	// shared marks a view of arrays the vector does not own (a window of
	// Lanes): reset drops them instead of reusing them.
	shared bool
	n      int
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
	switch {
	case v.Null != nil && v.Null[i]:
		return Null
	case v.Kind == KindFloat:
		return NewFloat(v.F64[i])
	case v.Kind == KindString:
		return Value{kind: KindString, s: v.Str[i]}
	case v.Kind == KindNull:
		return v.Any[i]
	}
	return Value{kind: v.Kind, i: v.I64[i]} // INT, BOOL, TIME
}

// reset prepares the vector to hold n values of the given kind, reusing
// backing arrays across batches.
func (v *Vec) reset(kind Kind, n int) {
	if v.shared {
		*v = Vec{}
	}
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

// FillFromRows transposes column col of rows into the vector: a row-backed
// batch's column the first time a kernel or a gather touches it. The column
// kind is sniffed from the first non-NULL value (a prepass that normally
// inspects one row). A column without NULLs whose values all share that kind
// — the common case — is copied by one typed loop; NULLs are tracked in the
// side lane and a kind mismatch degrades the whole column to Any. Backing
// arrays are reused across calls.
func (v *Vec) FillFromRows(rows Batch, col int) {
	n := len(rows)
	v.reset(KindNull, n)
	kind := KindNull
	for k := 0; k < n && kind == KindNull; k++ {
		kind = rows[k][col].kind
	}
	if kind == KindNull {
		// All-NULL (or empty) column: represent via Any.
		for i := 0; i < n; i++ {
			v.Any = append(v.Any, Null)
		}
		return
	}
	v.Kind = kind
	if v.gatherTyped(rows, col, n) {
		return
	}
	for k := 0; k < n; k++ {
		val := rows[k][col]
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
				v.Any = append(v.Any, rows[k][col])
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

// gatherTyped is FillFromRows' fast path: it copies the column into the
// lane of v.Kind and reports success, or stops at the first value of another
// kind (a NULL included) and reports false with the lanes still empty.
func (v *Vec) gatherTyped(rows Batch, col, n int) bool {
	k := 0
	switch v.Kind {
	case KindFloat:
		out := slices.Grow(v.F64, n)[:n]
		for ; k < n; k++ {
			val := &rows[k][col]
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
			val := &rows[k][col]
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
			val := &rows[k][col]
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

// GatherFrom fills the vector with src's values at idxs: a join's output
// columns, gathered from its left batch and from the rows it matched. Typed
// lanes copy array elements directly, skipping the per-value kind dispatch.
func (v *Vec) GatherFrom(src *Vec, idxs []int32) {
	v.reset(KindNull, 0)
	v.AppendFrom(src, 0, idxs, len(idxs))
}

// AppendFrom appends src's values at off plus the first k positions of idxs
// (at off on, k of them, when idxs is nil): one typed loop when the vector
// is empty or holds src's kind, value by value through Append otherwise.
func (v *Vec) AppendFrom(src *Vec, off int, idxs []int32, k int) {
	if v.n == 0 {
		v.Kind = src.Kind
	}
	if k == 1 && v.Kind == src.Kind && v.Null == nil && src.Null == nil { // a point read's value
		switch i := off + at(idxs, 0); v.Kind {
		case KindNull:
			v.Any = append(v.Any, src.Any[i])
		case KindFloat:
			v.F64 = append(v.F64, src.F64[i])
		case KindString:
			v.Str = append(v.Str, src.Str[i])
		default:
			v.I64 = append(v.I64, src.I64[i])
		}
		v.n++
		return
	}
	if v.Kind != src.Kind {
		for x := 0; x < k; x++ {
			v.Append(src.Value(off + at(idxs, x)))
		}
		return
	}
	switch v.Kind {
	case KindNull: // Any-mode or all-NULL source: values land verbatim
		v.Any = appendAt(v.Any, src.Any[off:], idxs, k)
	case KindFloat:
		v.F64 = appendAt(v.F64, src.F64[off:], idxs, k)
	case KindString:
		v.Str = appendAt(v.Str, src.Str[off:], idxs, k)
	default:
		v.I64 = appendAt(v.I64, src.I64[off:], idxs, k)
	}
	if src.Null != nil || v.Null != nil {
		v.appendNulls(src, off, idxs, k)
	}
	v.n += k
}

// appendNulls is AppendFrom's null lane: it starts one only when a NULL
// arrives.
func (v *Vec) appendNulls(src *Vec, off int, idxs []int32, k int) {
	nulls := v.Null != nil
	for x := 0; x < k && !nulls; x++ {
		nulls = src.Null[off+at(idxs, x)]
	}
	if !nulls {
		return
	}
	if v.Null == nil {
		v.Null = growNulls(v.nullBuf, v.n)
	}
	for x := 0; x < k; x++ {
		v.Null = append(v.Null, src.IsNull(off+at(idxs, x)))
	}
}

// appendAt appends src's elements at the first k positions of idxs (its
// first k when idxs is nil) to dst.
func appendAt[T any](dst, src []T, idxs []int32, k int) []T {
	if idxs == nil {
		return append(dst, src[:k]...)
	}
	dst = slices.Grow(dst, k)
	for _, i := range idxs[:k] {
		dst = append(dst, src[i])
	}
	return dst
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
	// Rows is the optional row-major backing of a row list or remote reply;
	// columns are transposed on demand. Nil for lane-backed and purely
	// columnar batches.
	Rows Batch
	// Sel lists active row indexes in ascending order; nil means all Len()
	// rows are active.
	Sel []int32

	// lanes, when non-nil, backs the batch with its rows [lo, lo+n): columns
	// are views of the lanes, made on first access (views says whether any
	// was).
	lanes    *Lanes
	lo       int
	views    bool
	n, width int
	// col[j] is column j — one of the batch's own vectors in cols, or one
	// SetCol installed — once made in the batch's current generation
	// (made[j] == gen): a reset starts a new generation instead of clearing
	// them. All three are allocated on first column access: a row-backed
	// batch that is only forwarded or read through the row view never pays
	// for them.
	cols []Vec
	col  []*Vec
	made []uint32
	gen  uint32
	row  Row // Row's scratch
}

// ResetRows (re)initializes the batch around a row window of the given
// arity, invalidating any materialized columns and clearing the selection.
// Column vectors and bookkeeping are reused across calls.
func (b *ColBatch) ResetRows(rows Batch, width int) { b.reset(rows, nil, 0, len(rows), width) }

// ResetCols (re)initializes the batch as purely columnar with the given
// width and logical length; columns must then be set with SetCol, built
// with BuildCol or filled by Append.
func (b *ColBatch) ResetCols(width, n int) { b.reset(nil, nil, 0, n, width) }

// ResetLanes (re)initializes the batch as a view of l's rows [i, j): nothing
// is copied, and the batch is valid only while l is neither written nor
// reset.
func (b *ColBatch) ResetLanes(l *Lanes, i, j int) { b.reset(nil, l, i, j-i, l.Width()) }

func (b *ColBatch) reset(rows Batch, l *Lanes, lo, n, width int) {
	if b.views && l == nil {
		for j := range b.cols {
			if b.cols[j].shared {
				b.cols[j] = Vec{} // drop the view
			}
		}
		b.views = false
	}
	b.Rows, b.lanes, b.lo, b.n, b.width, b.Sel = rows, l, lo, n, width, nil
	if b.gen++; b.gen == 0 { // wrapped: no stamp may match by accident
		clear(b.made[:cap(b.made)])
		b.gen = 1
	}
}

// has reports whether column j is made in the current generation.
func (b *ColBatch) has(j int) bool { return b.made[j] == b.gen }

// set makes v column j.
func (b *ColBatch) set(j int, v *Vec) {
	b.col[j], b.made[j] = v, b.gen
}

// vec returns the batch's own vector for column j, sizing the vector
// bookkeeping to the batch width on first use.
func (b *ColBatch) vec(j int) *Vec {
	if len(b.cols) != b.width {
		if cap(b.cols) < b.width {
			b.cols, b.col, b.made = make([]Vec, b.width), make([]*Vec, b.width), make([]uint32, b.width)
		}
		b.cols, b.col, b.made = b.cols[:b.width], b.col[:b.width], b.made[:b.width]
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

// Col returns column j: a view of the lanes, or the column transposed from
// the row backing, made on first access. The returned vector covers all
// Len() rows; kernels apply Sel themselves.
func (b *ColBatch) Col(j int) *Vec {
	v := b.vec(j)
	if !b.has(j) {
		if b.lanes != nil {
			v.view(&b.lanes.cols[j], b.lo, b.lo+b.n)
			b.views = true
		} else {
			v.FillFromRows(b.Rows, j)
		}
		b.set(j, v)
	}
	return b.col[j]
}

// BuildCol returns column j's vector emptied for incremental Appends,
// reusing its backing arrays. The caller must append exactly Len() values
// before the batch is handed to a consumer.
func (b *ColBatch) BuildCol(j int) *Vec {
	v := b.vec(j)
	v.reset(KindNull, 0)
	b.set(j, v)
	return v
}

// SetCol installs v as column j (purely columnar producers): the batch
// reads that vector, whose owner keeps it valid as long as the batch is.
func (b *ColBatch) SetCol(j int, v *Vec) {
	b.vec(j)
	b.set(j, v)
}

// Append copies the first k active rows of src into b, a purely columnar
// batch of src's width (ResetCols(width, 0) starts it empty) whose vectors
// b owns: what a reader keeps of rows it may not hold on to, such as those
// of a leaf window it filtered. With keep non-nil only the columns it
// reports are copied, and the batch's other columns must not be read.
func (b *ColBatch) Append(src *ColBatch, k int, keep func(j int) bool) {
	for j := 0; j < b.width; j++ {
		if keep != nil && !keep(j) {
			continue
		}
		v := b.vec(j)
		if !b.has(j) || b.col[j] != v {
			v.reset(KindNull, 0)
			b.set(j, v)
		}
		if src.lanes != nil { // straight from the lane, no view
			v.AppendFrom(&src.lanes.cols[j], src.lo, src.Sel, k)
		} else {
			v.AppendFrom(src.Col(j), 0, src.Sel, k)
		}
	}
	b.n += k
}

// Row returns physical row i (an index already resolved through Sel by the
// caller). With a row backing this is a zero-copy reference; any other
// batch assembles the row in a scratch row of its own, valid only until the
// next call.
func (b *ColBatch) Row(i int) Row {
	switch {
	case b.Rows != nil:
		return b.Rows[i]
	case b.lanes != nil:
		b.row = b.lanes.AppendRow(b.row[:0], b.lo+i)
	default:
		b.row = b.row[:0]
		for j := 0; j < b.width; j++ {
			b.row = append(b.row, b.Col(j).Value(i))
		}
	}
	return b.row
}

// AppendRows appends every active row to dst and returns it with what is
// left of room. Row-backed batches append shared row references (header
// copies only); any other batch materializes fresh rows carved out of one
// arena per call, filled one column at a time by a typed loop. The arena is
// the front of room when room has space for it, else a fresh allocation;
// either is never reused by the batch, so emitted rows stay valid as long as
// whoever handed in room does not write it again.
func (b *ColBatch) AppendRows(dst Batch, room []Value) (Batch, []Value) {
	if b.Rows != nil {
		if b.Sel == nil {
			return append(dst, b.Rows...), room
		}
		for _, i := range b.Sel {
			dst = append(dst, b.Rows[i])
		}
		return dst, room
	}
	w, active := b.width, b.NumActive()
	if active == 0 {
		return dst, room
	}
	var arena []Value
	if n := active * w; n <= len(room) {
		arena, room = room[:n:n], room[n:]
	} else {
		arena = make([]Value, n)
	}
	for k := 0; k < active; k++ {
		dst = append(dst, Row(arena[k*w:(k+1)*w:(k+1)*w]))
	}
	for j := 0; j < w; j++ {
		b.Col(j).scatter(arena[j:], w, 0, b.Sel, active)
	}
	return dst, room
}

// scatter writes the vector's values at off plus sel (its n values from off
// on when sel is nil) into out at stride w: one column of n rows laid out
// row by row. The kind switch runs once per column.
func (v *Vec) scatter(out []Value, w, off int, sel []int32, n int) {
	switch v.Kind {
	case KindInt, KindBool, KindTime:
		for k := 0; k < n; k++ {
			out[k*w] = Value{kind: v.Kind, i: v.I64[off+at(sel, k)]}
		}
	case KindFloat:
		for k := 0; k < n; k++ {
			out[k*w] = NewFloat(v.F64[off+at(sel, k)])
		}
	case KindString:
		for k := 0; k < n; k++ {
			out[k*w] = Value{kind: KindString, s: v.Str[off+at(sel, k)]}
		}
	default:
		for k := 0; k < n; k++ {
			out[k*w] = v.Any[off+at(sel, k)]
		}
	}
	for k := 0; k < n && v.Null != nil; k++ {
		if v.Null[off+at(sel, k)] {
			out[k*w] = Null
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
