package storage

import (
	"math"
	"slices"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
)

// Morsel is a half-open range [Start, End) of encoded clustered-index keys:
// the unit of work a parallel scan worker claims. An empty Start means from
// the beginning of the range; an empty End means to the end.
type Morsel struct {
	Start, End string
}

// Morsels partitions the clustered primary-key range described by lo/hi
// (same bound semantics as ScanIndex on a clustered index) into up to parts
// contiguous morsels of roughly equal cardinality, using the B+-tree's
// separator keys as boundaries. It always returns at least one morsel
// covering the whole range, so callers can fan out workers unconditionally.
func (t *Table) Morsels(lo, hi Bound, parts int) []Morsel {
	t.mu.RLock()
	defer t.mu.RUnlock()
	start, end := RangeKeys(lo, hi)
	morsels := make([]Morsel, 0, parts)
	cur := start
	for _, s := range t.primary.SplitKeys(parts) {
		if s <= cur {
			continue // splits are sorted; skip those before the range
		}
		if end != "" && s >= end {
			break
		}
		morsels = append(morsels, Morsel{Start: cur, End: s})
		cur = s
	}
	return append(morsels, Morsel{Start: cur, End: end})
}

// Cursor is a clustered range walk in progress: its bounds, the key it
// resumes at, and the batch the walk views each leaf window through. The
// bounds are encoded into the cursor's own buffer, so arming it allocates
// nothing (unless a key outgrows the buffer); an armed cursor must not be
// copied.
type Cursor struct {
	buf           [2 * sqltypes.KeyStackBytes]byte
	lo, hi        []byte // the range [lo, hi); empty means unbounded
	next          string // the key to resume at, once resumed
	resumed, done bool
	eq            int // the number of key values lo and hi both pin, if equal
	view          sqltypes.ColBatch
}

// Bounds arms c over the clustered key range lo and hi describe (ScanIndex's
// bound semantics).
func (c *Cursor) Bounds(lo, hi Bound) {
	c.lo, c.hi = appendRangeKeys(c.buf[:0], lo, hi)
	c.next, c.resumed, c.done, c.eq = "", false, false, 0
	if lo.Inclusive && hi.Inclusive && slices.Equal(lo.Vals, hi.Vals) {
		c.eq = len(lo.Vals)
	}
}

// Keys arms c over the encoded key range [start, end), "" meaning unbounded:
// a morsel.
func (c *Cursor) Keys(start, end string) {
	c.lo = append(c.buf[:0], start...)
	c.hi = append(c.lo[len(c.lo):], end...)
	c.next, c.resumed, c.done, c.eq = "", false, false, 0
}

// Done reports whether the walk has covered its range.
func (c *Cursor) Done() bool { return c.done }

// Step walks on from where c stopped, under one read latch, over at most
// limit rows. Each leaf window in range goes to visit as a batch over the
// leaf's lanes, valid only during the call; visit narrows it, copies or
// folds what it keeps, and returns how many of the window's rows it dealt
// with — all of them, or fewer to stop the walk there (a reader whose buffer
// is full). visit runs under the latch, so it must not block or take a
// latch. Step returns the number of rows dealt with; the cursor then
// resumes at the first row not dealt with, or is done. A step sees one
// committed state, so a walk interleaves with writers at step granularity:
// read committed, as for every reader.
func (t *Table) Step(c *Cursor, limit int, visit func(view *sqltypes.ColBatch) (int, error)) (int, error) {
	start := c.next
	if !c.resumed {
		start = string(c.lo)
	}
	read := 0
	var err error
	c.done = true
	t.mu.RLock()
	if c.eq == len(t.pkOrds) { // the whole primary key: one row at most, found, not walked
		if leaf, i, ok := t.primary.Find(start); ok {
			c.view.ResetLanes(leaf, i, i+1)
			read, err = visit(&c.view)
		}
		t.mu.RUnlock()
		c.view.ResetCols(0, 0)
		return read, err
	}
	t.primary.Walk(start, string(c.hi), func(keys []string, leaf *sqltypes.Lanes, i, j int) bool {
		if read == limit {
			c.next, c.resumed, c.done = keys[i], true, false
			return false
		}
		c.view.ResetLanes(leaf, i, min(j, i+limit-read))
		var took int
		if took, err = visit(&c.view); err != nil {
			return false
		}
		if read += took; i+took < j {
			c.next, c.resumed, c.done = keys[i+took], true, false
			return false
		}
		return true
	})
	t.mu.RUnlock()
	c.view.ResetCols(0, 0) // the views go with the latch
	return read, err
}

// Analyze computes the table's statistics (catalog.Analyze) in one Step over
// its whole key range: one read latch, one committed state, each leaf
// window folded where it lies.
func (t *Table) Analyze() *catalog.TableStats {
	var c Cursor
	c.Keys("", "")
	return catalog.Analyze(t.def, func(visit func(*sqltypes.ColBatch)) {
		t.Step(&c, math.MaxInt, func(view *sqltypes.ColBatch) (int, error) {
			visit(view)
			return view.Len(), nil
		})
	})
}
