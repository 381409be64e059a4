package exec

import (
	"slices"
	"time"

	"relaxedcc/internal/sqltypes"
)

// PhaseTimes breaks a query execution into the three phases profiled by the
// paper's Table 4.5: setup (instantiating the executable tree), run (open +
// producing all rows) and shutdown (close).
type PhaseTimes struct {
	Setup    time.Duration
	Run      time.Duration
	Shutdown time.Duration
}

// Total returns the summed elapsed time.
func (p PhaseTimes) Total() time.Duration { return p.Setup + p.Run + p.Shutdown }

// Result is a fully materialized query result with phase timings.
type Result struct {
	Schema *Schema
	Rows   []sqltypes.Row
	Phases PhaseTimes
	// room is storage for the values of materialized rows (Reserve).
	room []sqltypes.Value
}

// Reserve hands the result storage for its first rows and their values,
// which RunInto fills before it allocates: a caller that keeps both arrays
// inside a larger value answers a small query with no allocation of its own.
func (r *Result) Reserve(rows []sqltypes.Row, vals []sqltypes.Value) {
	r.Rows, r.room = rows[:0], vals
}

// Run opens the operator tree, drains it and closes it, recording run and
// shutdown phase times. Setup time (plan instantiation) is recorded by the
// caller that built the tree and passed here for inclusion in the result.
// This is the result boundary, the one place batches become rows: selection
// vectors resolve here, row-backed batches contribute shared row references
// and columnar batches are materialized once, into one arena per batch. The
// result's row list grows at most once per batch. Run allocates the Result,
// the row list and one arena per columnar batch; RunInto into a Reserved
// result allocates none of them while the answer fits the reserved storage.
func Run(root Operator, ctx *EvalContext, setup time.Duration) (*Result, error) {
	res := new(Result)
	if err := RunInto(res, root, ctx, setup); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run filling a Result the caller owns, which it overwrites. The
// row list starts over in the storage res.Rows had (the reserved array, or
// what an earlier run grew it to) and values are carved from the reserved
// room first, so rows of an earlier run into res must not be kept.
func RunInto(res *Result, root Operator, ctx *EvalContext, setup time.Duration) error {
	*res = Result{Schema: root.Schema(), Rows: res.Rows[:0], Phases: PhaseTimes{Setup: setup}, room: res.room}
	room := res.room
	clk := ctx.clock()
	start := clk.Now()
	if err := root.Open(ctx); err != nil {
		root.Close()
		return err
	}
	err := eachBatch(root, func(cb *sqltypes.ColBatch) error {
		// At most one growth per batch, and never by less than double: a
		// large result copies its row list a logarithmic number of times.
		if need := len(res.Rows) + cb.NumActive(); need > cap(res.Rows) {
			res.Rows = slices.Grow(res.Rows, max(need, 2*cap(res.Rows))-len(res.Rows))
		}
		res.Rows, room = cb.AppendRows(res.Rows, room)
		return nil
	})
	if err != nil {
		root.Close()
		return err
	}
	res.Phases.Run = clk.Now().Sub(start)

	start = clk.Now()
	if err := root.Close(); err != nil {
		return err
	}
	res.Phases.Shutdown = clk.Now().Sub(start)
	return nil
}

// VisitChildren calls f with the address of every child of op, in plan
// order; f may read the child or replace it through the pointer. It is the
// one place in the engine that knows which operators have children (the
// frozen bench/traced.go keeps its own switch until it may be edited).
func VisitChildren(op Operator, f func(child *Operator)) {
	switch op := op.(type) {
	case *SwitchUnion:
		for i := range op.Children {
			f(&op.Children[i])
		}
	case *Filter:
		f(&op.Child)
	case *Project:
		f(&op.Child)
	case *Sort:
		f(&op.Child)
	case *Limit:
		f(&op.Child)
	case *Distinct:
		f(&op.Child)
	case *Aggregate:
		f(&op.Child)
	case *HashJoin:
		f(&op.Left)
		f(&op.Right)
	case *MergeJoin:
		f(&op.Left)
		f(&op.Right)
	case *IndexLoopJoin:
		f(&op.Outer)
	case *Traced:
		f(&op.child)
	}
}
