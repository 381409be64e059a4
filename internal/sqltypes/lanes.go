package sqltypes

import "slices"

// Lanes keeps a run of rows column by column, one Vec per column: the
// layout a clustered B+-tree leaf stores its rows in (storage, btree), and
// the one an operator copies rows out of a leaf into (an index scan's
// snapshot, the candidates of an index join, a hash join's build side).
//
// A leaf's lane starts typed as its column is declared (MakeLanes), so a
// NULL sets a null bit and degrades nothing. A value of another kind — an
// INT stored in a DOUBLE column by `UPDATE t SET bal = 0` — turns that
// column of that leaf into the Any fallback, which keeps every value exactly
// as it was written. Every lane is as long as the run; Open, Remove and Move
// keep them so. Lanes are read through Col, AppendRow or a batch view
// (ColBatch.ResetLanes), never written through them.
type Lanes struct {
	kinds []Kind // each column's declared kind; shared, never written
	cols  []Vec
	n     int
}

// MakeLanes returns empty lanes for columns of the given declared kinds; a
// KindNull column starts in the Any fallback. The slice is kept, not copied.
func MakeLanes(kinds []Kind) Lanes {
	l := Lanes{kinds: kinds, cols: make([]Vec, len(kinds))}
	for c, k := range kinds {
		l.cols[c].Kind = k
	}
	return l
}

// Len returns the number of rows.
func (l *Lanes) Len() int { return l.n }

// Width returns the number of columns.
func (l *Lanes) Width() int { return len(l.cols) }

// Col returns column c's lane, covering every row. It is read-only.
func (l *Lanes) Col(c int) *Vec { return &l.cols[c] }

// Fresh returns empty lanes with the same declared kinds.
func (l *Lanes) Fresh() Lanes { return MakeLanes(l.kinds) }

// Reset empties the lanes, keeping their arrays, and returns every column to
// its declared kind (the Vec fallback when it has none).
func (l *Lanes) Reset() {
	for c := range l.cols {
		kind := KindNull
		if l.kinds != nil {
			kind = l.kinds[c]
		}
		l.cols[c].reset(kind, 0)
	}
	l.n = 0
}

// Open inserts a row at i: a zero value, not NULL, in every typed lane (the
// caller writes the row with Put).
func (l *Lanes) Open(i int) {
	for c := range l.cols {
		l.cols[c].open(i)
	}
	l.n++
}

// Put writes row into slot i.
func (l *Lanes) Put(i int, row Row) {
	for c := range l.cols {
		l.cols[c].set(i, row[c])
	}
}

// Remove deletes rows [i, j).
func (l *Lanes) Remove(i, j int) {
	for c := range l.cols {
		l.cols[c].remove(i, j)
	}
	l.n -= j - i
}

// Move inserts src's rows [i, j) at at, leaving src as it was. Lanes of one
// kind are copied as typed arrays. Lanes with no columns yet take src's
// declared kinds.
func (l *Lanes) Move(at int, src *Lanes, i, j int) {
	if l.cols == nil {
		*l = src.Fresh()
	}
	for c := range l.cols {
		l.cols[c].move(at, &src.cols[c], i, j)
	}
	l.n += j - i
}

// AppendBatch appends cb's active rows. Lanes with no columns yet get
// cb's width and take each column's kind from the first value.
func (l *Lanes) AppendBatch(cb *ColBatch) {
	if l.cols == nil {
		l.cols = make([]Vec, cb.Width())
	}
	for c := range l.cols {
		l.cols[c].AppendFrom(cb.Col(c), 0, cb.Sel, cb.NumActive())
	}
	l.n += cb.NumActive()
}

// Push appends row, as AppendBatch appends a batch's.
func (l *Lanes) Push(row Row) {
	if l.cols == nil {
		l.cols = make([]Vec, len(row))
	}
	for c := range l.cols {
		l.cols[c].Append(row[c])
	}
	l.n++
}

// AppendRow appends the values of row i to dst, growing it at most once.
func (l *Lanes) AppendRow(dst Row, i int) Row {
	dst = slices.Grow(dst, len(l.cols))
	for c := range l.cols {
		dst = append(dst, l.cols[c].Value(i))
	}
	return dst
}

// Rows writes rows [i, j) into dst's array, Width values a row, growing it
// only when it is too small, and returns it: a window of rows, each column
// copied by one typed loop.
func (l *Lanes) Rows(dst []Value, i, j int) []Value {
	w, n := len(l.cols), j-i
	dst = slices.Grow(dst[:0], w*n)[:w*n]
	for c := 0; c < w && n > 0; c++ {
		l.cols[c].scatter(dst[c:], w, i, nil, n)
	}
	return dst
}

// AppendKey appends the Key encoding of row i's columns at ords to dst.
func (l *Lanes) AppendKey(dst []byte, i int, ords []int) []byte {
	for _, o := range ords {
		dst = appendKey(dst, l.cols[o].Value(i))
	}
	return dst
}

// open inserts a zero value at i: a typed zero that is not NULL, or a NULL
// in the Any fallback.
func (v *Vec) open(i int) {
	switch v.Kind {
	case KindNull:
		v.Any = openAt(v.Any, i, 1)
	case KindFloat:
		v.F64 = openAt(v.F64, i, 1)
	case KindString:
		v.Str = openAt(v.Str, i, 1)
	default:
		v.I64 = openAt(v.I64, i, 1)
	}
	if v.Null != nil {
		v.Null = openAt(v.Null, i, 1)
	}
	v.n++
}

// set stores val at i: in the typed lane with its null bit, or — for a value
// of another kind — in the Any fallback the whole lane moves to.
func (v *Vec) set(i int, val Value) {
	switch {
	case v.Kind == KindNull:
		v.Any[i] = val
		return
	case val.kind == v.Kind:
		if v.Null != nil {
			v.Null[i] = false
		}
	case val.kind == KindNull:
		if v.Null == nil {
			v.Null = make([]bool, v.n)
		}
		v.Null[i] = true
		val = Value{kind: v.Kind} // the lane's zero, which drops a string
	default:
		v.migrateToAny()
		v.Any[i] = val
		return
	}
	switch v.Kind {
	case KindFloat:
		v.F64[i] = val.f64()
	case KindString:
		v.Str[i] = val.s
	default:
		v.I64[i] = val.i
	}
}

// remove deletes values [i, j).
func (v *Vec) remove(i, j int) {
	switch v.Kind {
	case KindNull:
		v.Any = slices.Delete(v.Any, i, j)
	case KindFloat:
		v.F64 = slices.Delete(v.F64, i, j)
	case KindString:
		v.Str = slices.Delete(v.Str, i, j)
	default:
		v.I64 = slices.Delete(v.I64, i, j)
	}
	if v.Null != nil {
		v.Null = slices.Delete(v.Null, i, j)
	}
	v.n -= j - i
}

// move inserts src's values [i, j) at at: one typed copy when the lanes
// share a kind, value by value (and perhaps into the Any fallback) when not.
func (v *Vec) move(at int, src *Vec, i, j int) {
	if v.Kind != src.Kind {
		for k := i; k < j; k++ {
			v.open(at)
			v.set(at, src.Value(k))
			at++
		}
		return
	}
	switch v.Kind {
	case KindNull:
		v.Any = slices.Insert(v.Any, at, src.Any[i:j]...)
	case KindFloat:
		v.F64 = slices.Insert(v.F64, at, src.F64[i:j]...)
	case KindString:
		v.Str = slices.Insert(v.Str, at, src.Str[i:j]...)
	default:
		v.I64 = slices.Insert(v.I64, at, src.I64[i:j]...)
	}
	switch {
	case src.Null != nil:
		if v.Null == nil {
			v.Null = make([]bool, v.n)
		}
		v.Null = slices.Insert(v.Null, at, src.Null[i:j]...)
	case v.Null != nil:
		v.Null = openAt(v.Null, at, j-i)
	}
	v.n += j - i
}

// view points v at src's values [i, j) without copying. The vector is
// shared: resetting it drops the arrays instead of writing into them, and
// its null lane is nil when the window holds no NULL.
func (v *Vec) view(src *Vec, i, j int) {
	*v = Vec{Kind: src.Kind, n: j - i, shared: true}
	switch src.Kind {
	case KindNull:
		v.Any = src.Any[i:j:j]
	case KindFloat:
		v.F64 = src.F64[i:j:j]
	case KindString:
		v.Str = src.Str[i:j:j]
	default:
		v.I64 = src.I64[i:j:j]
	}
	if src.Null != nil && slices.Contains(src.Null[i:j], true) {
		v.Null = src.Null[i:j:j]
	}
}

// openAt inserts n zero values at i.
func openAt[T any](s []T, i, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	copy(s[i+n:], s[i:])
	clear(s[i : i+n])
	return s
}
