package exec

import (
	"fmt"
	"strings"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/vclock"
)

// Instrument wraps every operator in the tree with a timing shim and
// returns the wrapped root plus the matching plan-shaped trace tree. Each
// node records inclusive open/next/close wall time, rows and batches
// produced; SwitchUnion nodes additionally capture the guard decision
// (branch, latency, region staleness) after Open. Both branches of a
// SwitchUnion appear in the tree — the one the guard rejected shows
// "(not executed)".
//
// Per-call time stamping costs two clock reads per batch (amortized over up
// to DefaultBatchSize rows); instrumentation is opt-in per execution
// (EXPLAIN ANALYZE), not part of the normal query path.
func Instrument(root Operator) (Operator, *obs.TraceNode) {
	node := &obs.TraceNode{Name: describe(root)}
	wrapChildren(root, node)
	return &Traced{child: root, node: node, clk: vclock.Wall{}}, node
}

// wrapChildren replaces each child of op with its instrumented wrapper,
// appending the child trace nodes to node in plan order.
func wrapChildren(op Operator, node *obs.TraceNode) {
	VisitChildren(op, func(c *Operator) {
		w, cn := Instrument(*c)
		node.Children = append(node.Children, cn)
		*c = w
	})
}

// describe names an operator for the trace tree, using whatever identifying
// detail the operator exports.
func describe(op Operator) string {
	switch op := op.(type) {
	case *Scan:
		if op.Index != "" {
			return fmt.Sprintf("IndexScan(%s.%s)", op.Table.Def().Name, op.Index)
		}
		return fmt.Sprintf("Scan(%s)", op.Table.Def().Name)
	case *ParallelScan:
		return fmt.Sprintf("ParallelScan(%s)", op.Table.Def().Name)
	case *SwitchUnion:
		if op.Label != "" {
			return fmt.Sprintf("SwitchUnion %s", op.Label)
		}
		return "SwitchUnion"
	case *Remote:
		return fmt.Sprintf("Remote(%s)", op.SQL)
	case *IndexLoopJoin:
		return fmt.Sprintf("IndexLoopJoin(%s.%s)", op.Inner.Def().Name, op.Index)
	default: // the bare type name: Filter, HashJoin, Aggregate, ...
		return strings.TrimPrefix(fmt.Sprintf("%T", op), "*exec.")
	}
}

// Traced is the instrumentation shim around one operator. It passes
// batches through unchanged while accumulating phase timings into its
// trace node. Tree walkers unwrap it via Unwrap.
type Traced struct {
	child Operator
	node  *obs.TraceNode
	// clk stamps the shim's timings: the wall clock until Open, then the
	// execution's injected clock so traces replay under vclock.Virtual.
	clk vclock.Clock
}

// Unwrap returns the operator the shim wraps.
func (t *Traced) Unwrap() Operator { return t.child }

// Schema implements Operator.
func (t *Traced) Schema() *Schema { return t.child.Schema() }

// Open implements Operator, timing the child's Open and capturing the guard
// decision for SwitchUnion children: the execution's guard hook is wrapped
// while the child opens, and the last decision it delivers is the guard's
// own, which comes after those of the guards under the branch it opened.
func (t *Traced) Open(ctx *EvalContext) error {
	t.clk = ctx.clock()
	if _, isGuard := t.child.(*SwitchUnion); isGuard {
		sink := ctx.OnGuard
		defer func() { ctx.OnGuard = sink }()
		ctx.OnGuard = func(d GuardDecision) {
			if t.node.Guard = &d.GuardEvent; sink != nil {
				sink(d)
			}
		}
	}
	start := t.clk.Now()
	err := t.child.Open(ctx)
	t.node.Open += t.clk.Now().Sub(start)
	t.node.Opens++
	return err
}

// NextVec implements Operator. Row counts use the batch's active
// (post-selection) cardinality.
func (t *Traced) NextVec() (*sqltypes.ColBatch, bool, error) {
	start := t.clk.Now()
	cb, ok, err := t.child.NextVec()
	t.node.Next += t.clk.Now().Sub(start)
	if ok {
		t.node.Rows += int64(cb.NumActive())
		t.node.Batches++
	}
	return cb, ok, err
}

// Close implements Operator.
func (t *Traced) Close() error {
	start := t.clk.Now()
	err := t.child.Close()
	t.node.Close += t.clk.Now().Sub(start)
	return err
}
