package exec

import "relaxedcc/internal/sqltypes"

// This file is the one join emitter. The three join algorithms differ only
// in how they find the right rows matching a left row — a hash chain, an
// index seek, the buffered equal-key group of a merge; what happens to a
// match is shared. The right rows a join can pair are column lanes the
// emitter owns (the hash join's build side; the rows an index seek or a
// merge group supplied). An inner join collects (left row, right row) pairs
// per left batch, tests a residual over one reused scratch row, and gathers
// the pairs column-wise into reused output vectors: no joined row is ever
// built here, so a Project above forwards vectors and rows exist only at the
// result boundary. Semi and anti joins emit the left batch narrowed by a
// selection vector.

// matcher is what a join algorithm supplies to the emitter.
type matcher interface {
	// probeBatch prepares matching for a new left batch: cb, whose active
	// rows the emitter reads through left.
	probeBatch(cb *sqltypes.ColBatch) error
	// anyMatch reports whether left row r of the batch has an admitted match.
	anyMatch(r int) (bool, error)
	// collectPairs appends up to n admitted pairs to the emitter's pair
	// lists, resuming where the last call stopped, and reports whether the
	// left batch is exhausted.
	collectPairs(n int) (bool, error)
}

// joinOut is the emitter's state, embedded by every join.
type joinOut struct {
	ctx      *EvalContext
	residual Compiled
	kind     JoinKind
	lw, w    int // left and output width

	probe     *sqltypes.ColBatch // the current left batch ...
	np        int                // ... and its number of active rows
	pi        int                // next left row to match
	batchDone bool               // the left batch has no matches left to collect

	// A pair is active left row pr[k] with right row pm[k].
	pr, pm []int32
	right  sqltypes.Lanes

	lsel    []int32      // pr resolved through the left batch's selection
	scratch sqltypes.Row // joined-row buffer for residual tests, never emitted
	sel     []int32
	vout    sqltypes.ColBatch
}

func (o *joinOut) reset(ctx *EvalContext, residual Compiled, kind JoinKind, lw, w int) {
	o.ctx, o.residual, o.kind, o.lw, o.w = ctx, residual, kind, lw, w
	o.probe, o.np, o.pi, o.batchDone = nil, 0, 0, true
}

// left returns active row r of the left batch, valid until the next call.
func (o *joinOut) left(r int) sqltypes.Row { return o.probe.Row(at(o.probe.Sel, r)) }

// admit tests the residual over left row r joined with right row c; no
// residual admits every pair.
func (o *joinOut) admit(r, c int) (bool, error) {
	if o.residual == nil {
		return true, nil
	}
	o.scratch = o.right.AppendRow(append(o.scratch[:0], o.left(r)...), c)
	return PredicateTrue(o.residual, o.ctx, o.scratch)
}

// next is NextVec for every join.
func (o *joinOut) next(m matcher, left Operator) (*sqltypes.ColBatch, bool, error) {
	n := batchSizeOf(o.ctx)
	for {
		for !o.batchDone {
			o.pr, o.pm = o.pr[:0], o.pm[:0]
			var err error
			if o.batchDone, err = m.collectPairs(n); err != nil {
				return nil, false, err
			}
			if len(o.pr) > 0 {
				return o.gather(), true, nil
			}
		}
		cb, ok, err := left.NextVec()
		if err != nil || !ok {
			return nil, false, err
		}
		o.probe, o.np, o.pi = cb, cb.NumActive(), 0
		if err := m.probeBatch(cb); err != nil {
			return nil, false, err
		}
		if o.kind == JoinInner {
			o.batchDone = false
			continue
		}
		sel := selFor(o.sel, cb)
		for r := 0; r < o.np; r++ {
			found, err := m.anyMatch(r)
			if err != nil {
				return nil, false, err
			}
			if found == (o.kind == JoinSemi) {
				sel = append(sel, int32(at(cb.Sel, r)))
			}
		}
		if o.sel = sel; len(sel) > 0 {
			cb.Sel = sel
			return cb, true, nil
		}
	}
}

// gather builds the output batch from the pair lists: left columns from the
// left batch's vectors, right columns from the right lanes, each
// vector-to-vector.
func (o *joinOut) gather() *sqltypes.ColBatch {
	o.vout.ResetCols(o.w, len(o.pr))
	left := o.pr
	if sel := o.probe.Sel; sel != nil {
		o.lsel = o.lsel[:0]
		for _, r := range o.pr {
			o.lsel = append(o.lsel, sel[r])
		}
		left = o.lsel
	}
	for j := 0; j < o.lw; j++ {
		o.vout.BuildCol(j).GatherFrom(o.probe.Col(j), left)
	}
	for j := o.lw; j < o.w; j++ {
		o.vout.BuildCol(j).GatherFrom(o.right.Col(j-o.lw), o.pm)
	}
	return &o.vout
}

// rowPairs is the matcher of the joins that find a left row's matches as a
// run of rows: find is the index-loop join's seek or the merge join's
// advance to the equal-key group, and appends the matches to right.
type rowPairs struct {
	joinOut
	find func(left sqltypes.Row) error
	mi   int // right rows from mi on match left row pi-1 and are not yet tested
}

func (p *rowPairs) probeBatch(*sqltypes.ColBatch) error {
	p.right.Reset()
	p.mi = 0
	return nil
}

func (p *rowPairs) anyMatch(r int) (bool, error) {
	p.right.Reset()
	if err := p.find(p.left(r)); err != nil {
		return false, err
	}
	for c := 0; c < p.right.Len(); c++ {
		if ok, err := p.admit(r, c); err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

func (p *rowPairs) collectPairs(n int) (bool, error) {
	// No pair holds a right row yet: keep only the untested ones.
	p.right.Remove(0, p.mi)
	for p.mi = 0; len(p.pr) < n; {
		if p.mi >= p.right.Len() {
			if p.pi >= p.np {
				return true, nil
			}
			if err := p.find(p.left(p.pi)); err != nil {
				return false, err
			}
			p.pi++
			continue
		}
		c := p.mi
		p.mi++
		ok, err := p.admit(p.pi-1, c)
		if err != nil {
			return false, err
		}
		if ok {
			p.pr = append(p.pr, int32(p.pi-1))
			p.pm = append(p.pm, int32(c))
		}
	}
	return false, nil
}
