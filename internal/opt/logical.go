// Package opt is the cost-based query optimizer shared by the back-end
// server and the cache DBMS (MTCache). It implements the paper's key
// machinery (Section 3.2):
//
//   - an algebrizer that resolves names, flattens SPJ derived tables,
//     rewrites EXISTS/IN subqueries into semi/anti joins, and normalizes the
//     query's currency clauses into a cc.Constraint (the *required
//     consistency property*);
//   - view matching in the spirit of [GL01] restricted to the prototype's
//     view class (selections/projections of one table);
//   - compile-time consistency checking: delivered consistency properties
//     are computed bottom-up and plans violating the required property are
//     discarded as early as possible;
//   - run-time currency checking: local view access is wrapped in a
//     SwitchUnion whose currency guard consults the region's local heartbeat;
//   - a cost model including the guarded-plan formula
//     c = p*c_local + (1-p)*c_remote + c_guard with p = clamp((B-d)/f, 0, 1).
//
// The same planner serves both sites: at the back end every table is local,
// there is no remote fall-back and constraints are trivially satisfied (the
// master is always current); at the cache, base tables are empty shadows and
// data lives in materialized views plus the remote server.
package opt

import (
	"fmt"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/cc"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/vclock"
)

// RemoteExecutor ships a SQL query to the back-end server. The cache's
// remote link implements it; it is nil at the back end itself.
type RemoteExecutor interface {
	// QueryScanned executes q at the back end and returns all result rows.
	QueryScanned(q sqlparser.Scanned) ([]sqltypes.Row, error)
}

// Site describes the server a query is being planned for.
type Site struct {
	// Cat is the site's catalog: at the cache, the shadow catalog whose
	// statistics describe the back-end data.
	Cat *catalog.Catalog
	// LocalTable returns local row storage for a base table, or nil. At the
	// back end every table is local; at the cache base tables are empty
	// shadows (nil).
	LocalTable func(name string) *storage.Table
	// LocalView returns local row storage for a materialized view, or nil.
	LocalView func(name string) *storage.Table
	// Remote is the link to the back end (nil at the back end).
	Remote RemoteExecutor
	// Word returns a region's state word (storage.Word), which publishes the
	// region's replicated heartbeat that currency guards judge and moves
	// whenever its agent writes the region's views or heartbeat; nil, or a
	// nil word, for a region nothing publishes one for: its guards choose
	// the remote branch.
	Word func(regionID int) *storage.Word
	// Clock is the site's time source.
	Clock vclock.Clock
}

// IsBackend reports whether the site is the master (no remote fall-back).
func (s *Site) IsBackend() bool { return s.Remote == nil }

// Options tunes planning per query.
type Options struct {
	// MinSync is the timeline-consistency floor (Section 2.3): local data
	// may only be used if its region has synchronized at or past this time.
	// Zero means no floor.
	MinSync time.Time
	// NoGuards disables currency guards (ablation): local views are used
	// unguarded whenever consistency allows. Not used in normal operation.
	NoGuards bool
	// ForceLocal disables cost-based remote/local choice (ablation): any
	// local view that satisfies the constraints is used even if a remote
	// plan is cheaper.
	ForceLocal bool
	// IgnoreConstraints skips compile-time consistency checking entirely
	// (used by the serve-stale violation action and by ablations).
	IgnoreConstraints bool
	// MaxDOP overrides the degree of parallelism the planner assumes for
	// parallel scans (normally GOMAXPROCS capped by the cost model). It is
	// also stamped into built ParallelScan operators. Zero means automatic;
	// 1 effectively disables parallel plans.
	MaxDOP int
}

// Leaf is one base-table instance in the flattened query: the unit of
// access-path selection and of C&C constraint tracking.
type Leaf struct {
	ID      cc.InstanceID
	Table   *catalog.Table
	Binding string // alias the instance is known by in the query
	// Preds are single-table conjuncts on this instance (pushed down).
	Preds []sqlparser.Expr
	// Join describes how the leaf enters the join tree: inner for plain
	// FROM entries, semi/anti for EXISTS/NOT EXISTS subqueries.
	Join exec.JoinKind
	// Cols are the table columns the query needs from this instance.
	Cols []string
	// pins is the query's record of literal values read (nil for a leaf put
	// together by hand).
	pins *pins
}

// pins records which literal slots (sqlparser.Literal.Slot, the first 64)
// planning read the value of. A plan is a function of the statement's shape
// and of exactly those values: every other literal is compiled as a read of
// the execution's parameters, so the plan serves any statement that differs
// in them only. Everything the planner does with a literal's value — not its
// kind, which the shape fixes — goes through val.
type pins uint64

// val reads the literal's value and pins its slot. A nil receiver only reads.
func (p *pins) val(l *sqlparser.Literal) sqltypes.Value {
	p.pin(l.Slot)
	return l.Val
}

func (p *pins) pin(slot int) {
	if p != nil && 0 < slot && slot <= 64 {
		*p |= 1 << (slot - 1)
	}
}

// same reports whether two literals hold the same value; for one slot met
// twice (a propagated equality) that takes no reading.
func (p *pins) same(a, b *sqlparser.Literal) bool {
	return a.Slot > 0 && a.Slot == b.Slot || p.val(a).String() == p.val(b).String()
}

// JoinPred is an equi-join conjunct between two leaves.
type JoinPred struct {
	LeftLeaf, RightLeaf cc.InstanceID
	LeftCol, RightCol   string // bare column names on the respective leaves
	Expr                sqlparser.Expr
}

// AggItem is one aggregate computation discovered in the projection or
// HAVING clause.
type AggItem struct {
	Func string
	Arg  sqlparser.Expr // nil for COUNT(*)
	Star bool
	// Ref is the rewritten column reference standing for this aggregate in
	// post-aggregation expressions.
	Ref *sqlparser.ColumnRef
	// Kind is the kind of its result (exec.AggKind), fixed by Algebrize.
	Kind sqltypes.Kind
}

// Query is the algebrized (logical) form of a SELECT: flat join graph plus
// finishing steps.
type Query struct {
	Stmt   *sqlparser.SelectStmt // bound original statement (for remote SQL)
	Leaves []*Leaf
	Joins  []JoinPred
	// Residual conjuncts reference multiple leaves non-equi (evaluated on
	// the join output).
	Residual []sqlparser.Expr
	// Constraint is the normalized required consistency property.
	Constraint cc.Constraint
	// HasCurrencyClause records whether any block had an explicit clause;
	// without one the Constraint is the tight default.
	HasCurrencyClause bool

	// Finishing steps.
	Items    []sqlparser.SelectItem
	GroupBy  []sqlparser.Expr
	Aggs     []AggItem
	Having   sqlparser.Expr
	OrderBy  []sqlparser.OrderItem
	Top      int64
	Distinct bool
	// Out is the result schema: each item's name and the kind Algebrize
	// bound it to.
	Out *exec.Schema

	// pinned collects the literal slots planning reads the values of.
	pinned pins
}

// Leaf returns the leaf with the given instance id, or nil.
func (q *Query) Leaf(id cc.InstanceID) *Leaf {
	for _, l := range q.Leaves {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// Plan is a complete physical plan with its metadata.
type Plan struct {
	Root exec.Operator
	// Build re-instantiates a fresh executable tree from the plan — the
	// "setup" phase the paper profiles in Table 4.5. Root is the first
	// instantiation.
	Build func() (exec.Operator, error)
	// Cost is the estimated cost in abstract milliseconds.
	Cost float64
	// Delivered is the plan's delivered consistency property.
	Delivered cc.Delivered
	// Shape describes the plan for diagnostics and experiments, e.g.
	// "Remote(q)" or "HashJoin(Guard(cust_prj), Remote(Orders))".
	Shape string
	// UsesLocal reports whether any local view appears in the plan.
	UsesLocal bool
	// Guards counts SwitchUnion currency guards in the plan.
	Guards int
	// LocalLeaves and RemoteLeaves count base-table accesses by kind (a
	// guarded view access counts as local).
	LocalLeaves  int
	RemoteLeaves int
	// DOP is the plan's degree of parallelism: the worker count of its
	// widest ParallelScan, or 1 for fully serial plans.
	DOP int
	// Setup is how long optimization + operator construction took.
	Setup time.Duration
	// Pinned has bit i set when planning read the value of the literal in
	// slot i+1 (see pins): the plan holds for another statement of the same
	// shape only if it agrees on those.
	Pinned uint64
}

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("%s cost=%.3f guards=%d", p.Shape, p.Cost, p.Guards)
}
