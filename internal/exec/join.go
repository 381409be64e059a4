package exec

import "relaxedcc/internal/sqltypes"

// This file is the one join emitter. The three join algorithms differ only
// in how they find the right rows matching a left row — a hash chain, an
// index seek, the buffered equal-key group of a merge; what happens to a
// match is shared. An inner join collects (left index, right row) pairs per
// left batch, tests a residual over one reused scratch row, and gathers the
// pairs column-wise into reused output vectors: no joined row is ever built
// here, so a Project above forwards vectors and rows exist only at the
// result boundary. Semi and anti joins emit the left batch narrowed by a
// selection vector.

// matcher is what a join algorithm supplies to the emitter.
type matcher interface {
	// probeBatch prepares matching for a new left batch: cb, whose active
	// rows are joinOut.probe.
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

	probe     sqltypes.Batch // dense rows of the current left batch
	probeBuf  sqltypes.Batch
	pi        int  // next left row to match
	batchDone bool // the left batch has no matches left to collect

	// A pair is left row pr[k] with build row pm[k] of bcols (the hash join,
	// whose build side is transposed once) or with right row rows[k].
	pr, pm []int32
	rows   sqltypes.Batch
	bcols  *sqltypes.ColBatch

	scratch sqltypes.Row // joined-row buffer for residual tests, never emitted
	sel     []int32
	vout    sqltypes.ColBatch
}

func (o *joinOut) reset(ctx *EvalContext, residual Compiled, kind JoinKind, lw, w int) {
	o.ctx, o.residual, o.kind, o.lw, o.w = ctx, residual, kind, lw, w
	o.probe, o.pi, o.batchDone = nil, 0, true
}

// admit tests the residual over the joined row (l, r); no residual admits
// every pair.
func (o *joinOut) admit(l, r sqltypes.Row) (bool, error) {
	if o.residual == nil {
		return true, nil
	}
	o.scratch = append(append(o.scratch[:0], l...), r...)
	return PredicateTrue(o.residual, o.ctx, o.scratch)
}

// next is NextVec for every join.
func (o *joinOut) next(m matcher, left Operator) (*sqltypes.ColBatch, bool, error) {
	n := batchSizeOf(o.ctx)
	for {
		for !o.batchDone {
			o.pr, o.pm, o.rows = o.pr[:0], o.pm[:0], o.rows[:0]
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
		o.probe, o.pi = denseRows(cb, &o.probeBuf), 0
		if err := m.probeBatch(cb); err != nil {
			return nil, false, err
		}
		if o.kind == JoinInner {
			o.batchDone = false
			continue
		}
		sel := selFor(o.sel, cb)
		for r := range o.probe {
			found, err := m.anyMatch(r)
			if err != nil {
				return nil, false, err
			}
			if found == (o.kind == JoinSemi) {
				sel = append(sel, int32(r))
			}
		}
		if o.sel = sel; len(sel) > 0 {
			o.vout.ResetRows(o.probe, o.w)
			o.vout.Sel = sel
			return &o.vout, true, nil
		}
	}
}

// gather builds the output batch from the pair lists: left columns gather
// from the probe rows, right columns vector-to-vector from the transposed
// build side or from the pairs' right rows.
func (o *joinOut) gather() *sqltypes.ColBatch {
	o.vout.ResetCols(o.w, len(o.pr))
	for j := 0; j < o.lw; j++ {
		o.vout.BuildCol(j).GatherFromRows(o.probe, o.pr, j)
	}
	for j := o.lw; j < o.w; j++ {
		if o.bcols != nil {
			o.vout.BuildCol(j).GatherFrom(o.bcols.Col(j-o.lw), o.pm)
		} else {
			o.vout.BuildCol(j).FillFromRows(o.rows, j-o.lw)
		}
	}
	return &o.vout
}

// rowPairs is the matcher of the joins that find a left row's matches as a
// row list: find is the index-loop join's seek or the merge join's advance
// to the equal-key group. Its result is valid until the next call.
type rowPairs struct {
	joinOut
	find func(left sqltypes.Row) (sqltypes.Batch, error)
	cand sqltypes.Batch // matches of left row pi-1 ...
	mi   int            // ... not yet tested from here on
}

func (p *rowPairs) probeBatch(*sqltypes.ColBatch) error {
	p.cand, p.mi = nil, 0
	return nil
}

func (p *rowPairs) anyMatch(r int) (bool, error) {
	cand, err := p.find(p.probe[r])
	if err != nil {
		return false, err
	}
	for _, c := range cand {
		if ok, err := p.admit(p.probe[r], c); err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

func (p *rowPairs) collectPairs(n int) (bool, error) {
	for len(p.pr) < n {
		if p.mi >= len(p.cand) {
			if p.pi >= len(p.probe) {
				return true, nil
			}
			var err error
			if p.cand, err = p.find(p.probe[p.pi]); err != nil {
				return false, err
			}
			p.mi = 0
			p.pi++
			continue
		}
		r := p.cand[p.mi]
		p.mi++
		ok, err := p.admit(p.probe[p.pi-1], r)
		if err != nil {
			return false, err
		}
		if ok {
			p.pr = append(p.pr, int32(p.pi-1))
			p.rows = append(p.rows, r)
		}
	}
	return false, nil
}
