package exec

import (
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
// and columnar batches are materialized once.
func Run(root Operator, ctx *EvalContext, setup time.Duration) (*Result, error) {
	res := &Result{Schema: root.Schema()}
	res.Phases.Setup = setup

	clk := ctx.clock()
	start := clk.Now()
	if err := root.Open(ctx); err != nil {
		root.Close()
		return nil, err
	}
	for {
		cb, ok, err := root.NextVec()
		if err != nil {
			root.Close()
			return nil, err
		}
		if !ok {
			break
		}
		res.Rows = cb.AppendRows(res.Rows)
	}
	res.Phases.Run = clk.Now().Sub(start)

	start = clk.Now()
	if err := root.Close(); err != nil {
		return nil, err
	}
	res.Phases.Shutdown = clk.Now().Sub(start)
	return res, nil
}

// CollectSwitchUnions walks an operator tree and returns every SwitchUnion
// in it, so callers can inspect guard decisions after a run.
func CollectSwitchUnions(root Operator) []*SwitchUnion {
	var out []*SwitchUnion
	var walk func(op Operator)
	walk = func(op Operator) {
		switch op := op.(type) {
		case *SwitchUnion:
			out = append(out, op)
			for _, c := range op.Children {
				walk(c)
			}
		case *Filter:
			walk(op.Child)
		case *Project:
			walk(op.Child)
		case *HashJoin:
			walk(op.Left)
			walk(op.Right)
		case *MergeJoin:
			walk(op.Left)
			walk(op.Right)
		case *IndexLoopJoin:
			walk(op.Outer)
		case *Sort:
			walk(op.Child)
		case *Limit:
			walk(op.Child)
		case *Distinct:
			walk(op.Child)
		case *Aggregate:
			walk(op.Child)
		case *Traced:
			walk(op.child)
		}
	}
	walk(root)
	return out
}
