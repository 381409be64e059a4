package exec

import "relaxedcc/internal/sqltypes"

// DefaultBatchSize is the number of rows per batch when the EvalContext does
// not override it. 1024 keeps a batch's column vectors (8 KB per 64-bit lane)
// well inside L2 while amortizing per-batch overhead to a fraction of a
// nanosecond per row.
const DefaultBatchSize = 1024

// batchSizeOf resolves the tunable batch size from the context.
func batchSizeOf(ctx *EvalContext) int {
	if ctx != nil && ctx.BatchSize > 0 {
		return ctx.BatchSize
	}
	return DefaultBatchSize
}

// eachBatch feeds every remaining batch of an opened operator to fn.
func eachBatch(op Operator, fn func(*sqltypes.ColBatch) error) error {
	for {
		cb, ok, err := op.NextVec()
		if err != nil || !ok {
			return err
		}
		if err := fn(cb); err != nil {
			return err
		}
	}
}

// selFor empties a reusable selection buffer with room for every row of cb.
// The result is never nil: a nil Sel means "all rows active".
func selFor(buf []int32, cb *sqltypes.ColBatch) []int32 {
	if cap(buf) < cb.Len() {
		return make([]int32, 0, cb.Len())
	}
	return buf[:0]
}

// window is the NextVec state of the operators that emit a run they hold,
// in successive zero-copy windows: a row list at a tree's row edges (Values,
// Remote), or the lanes an Aggregate keeps its groups in.
type window struct {
	rows   []sqltypes.Row
	lanes  *sqltypes.Lanes // when set, the run instead of rows
	pos, n int
	out    sqltypes.ColBatch
}

func (w *window) reset(rows []sqltypes.Row, lanes *sqltypes.Lanes, ctx *EvalContext) {
	w.rows, w.lanes, w.pos, w.n = rows, lanes, 0, batchSizeOf(ctx)
}

func (w *window) next(width int) (*sqltypes.ColBatch, bool, error) {
	end := len(w.rows)
	if w.lanes != nil {
		end = w.lanes.Len()
	}
	if w.pos >= end {
		return nil, false, nil
	}
	if end = min(w.pos+w.n, end); w.lanes != nil {
		w.out.ResetLanes(w.lanes, w.pos, end)
	} else {
		w.out.ResetRows(w.rows[w.pos:end], width)
	}
	w.pos = end
	return &w.out, true, nil
}
