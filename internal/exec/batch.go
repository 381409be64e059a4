package exec

import "relaxedcc/internal/sqltypes"

// DefaultBatchSize is the number of rows per batch when the EvalContext does
// not override it. 1024 keeps a batch of row references well inside L2 while
// amortizing per-batch overhead to a fraction of a nanosecond per row.
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

// rowReader walks a child's batches through the row view, for operators
// whose logic is sequential in rows and which keep them (the merge join's
// right side, a sort). Rows it returns are shared and immutable and may be
// retained: a row-backed batch's own, or rows AppendRows made of any other
// (buf holds their headers).
type rowReader struct {
	rows sqltypes.Batch
	pos  int
	buf  sqltypes.Batch
}

func (r *rowReader) reset() { r.rows, r.pos = nil, 0 }

func (r *rowReader) next(child Operator) (sqltypes.Row, bool, error) {
	for r.pos >= len(r.rows) {
		cb, ok, err := child.NextVec()
		if err != nil || !ok {
			return nil, false, err
		}
		if r.rows, r.pos = cb.Rows, 0; cb.Rows == nil || cb.Sel != nil {
			r.buf = cb.AppendRows(r.buf[:0])
			r.rows = r.buf
		}
	}
	row := r.rows[r.pos]
	r.pos++
	return row, true, nil
}

// rowWindow is the NextVec state of operators whose output is a
// materialized row list (Values, Remote, Sort, Aggregate): successive
// zero-copy windows of the list.
type rowWindow struct {
	rows   []sqltypes.Row
	pos, n int
	out    sqltypes.ColBatch
}

func (w *rowWindow) reset(rows []sqltypes.Row, ctx *EvalContext) {
	w.rows, w.pos, w.n = rows, 0, batchSizeOf(ctx)
}

func (w *rowWindow) next(width int) (*sqltypes.ColBatch, bool, error) {
	if w.pos >= len(w.rows) {
		return nil, false, nil
	}
	end := min(w.pos+w.n, len(w.rows))
	w.out.ResetRows(w.rows[w.pos:end], width)
	w.pos = end
	return &w.out, true, nil
}
