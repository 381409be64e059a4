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

// Add accumulates another execution's phases (used for averaging).
func (p *PhaseTimes) Add(q PhaseTimes) {
	p.Setup += q.Setup
	p.Run += q.Run
	p.Shutdown += q.Shutdown
}

// Scale divides all phases by n.
func (p PhaseTimes) Scale(n int) PhaseTimes {
	if n <= 0 {
		return p
	}
	return PhaseTimes{
		Setup:    p.Setup / time.Duration(n),
		Run:      p.Run / time.Duration(n),
		Shutdown: p.Shutdown / time.Duration(n),
	}
}

// Result is a fully materialized query result with phase timings.
type Result struct {
	Schema *Schema
	Rows   []sqltypes.Row
	Phases PhaseTimes
}

// Run opens the operator tree, drains it and closes it, recording run and
// shutdown phase times. Setup time (plan instantiation) is recorded by the
// caller that built the tree and passed here for inclusion in the result.
// This is the result boundary, the one place batches become rows: selection
// vectors resolve here, row-backed batches contribute shared row references
// and columnar batches are materialized once, into one arena per batch. The
// result's row list grows at most once per batch.
func Run(root Operator, ctx *EvalContext, setup time.Duration) (*Result, error) {
	res := &Result{Schema: root.Schema()}
	res.Phases.Setup = setup

	clk := ctx.clock()
	start := clk.Now()
	if err := root.Open(ctx); err != nil {
		root.Close()
		return nil, err
	}
	err := eachBatch(root, func(cb *sqltypes.ColBatch) error {
		// At most one growth per batch, and never by less than double: a
		// large result copies its row list a logarithmic number of times.
		if need := len(res.Rows) + cb.NumActive(); need > cap(res.Rows) {
			res.Rows = slices.Grow(res.Rows, max(need, 2*cap(res.Rows))-len(res.Rows))
		}
		res.Rows = cb.AppendRows(res.Rows)
		return nil
	})
	if err != nil {
		root.Close()
		return nil, err
	}
	res.Phases.Run = clk.Now().Sub(start)

	start = clk.Now()
	if err := root.Close(); err != nil {
		return nil, err
	}
	res.Phases.Shutdown = clk.Now().Sub(start)
	return res, nil
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

// Children returns op's children in plan order.
func Children(op Operator) []Operator {
	var out []Operator
	VisitChildren(op, func(c *Operator) { out = append(out, *c) })
	return out
}

// CollectSwitchUnions walks an operator tree and returns every SwitchUnion
// in it, so callers can inspect guard decisions after a run.
func CollectSwitchUnions(root Operator) []*SwitchUnion {
	var out []*SwitchUnion
	if su, ok := root.(*SwitchUnion); ok {
		out = append(out, su)
	}
	for _, c := range Children(root) {
		out = append(out, CollectSwitchUnions(c)...)
	}
	return out
}
