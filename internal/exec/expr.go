package exec

import (
	"fmt"
	"time"

	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/vclock"
)

// EvalContext carries per-execution state for expression evaluation.
type EvalContext struct {
	// Now is the query start time, returned by GETDATE(). Fixing it per
	// execution keeps currency-guard evaluation consistent within a plan.
	Now time.Time
	// Clock is the time source for the executor's own measurements — phase
	// timings, guard-wait accounting, trace instrumentation. Nil falls back
	// to the wall clock; deterministic harnesses inject a vclock.Virtual so
	// timings replay byte-identically.
	Clock vclock.Clock
	// BatchSize overrides DefaultBatchSize for batch-at-a-time operators.
	// Zero means the default.
	BatchSize int
	// Query is the id of the query this execution answers, stamped on every
	// guard decision it takes (see obs.GuardEvent.Query); zero outside a
	// session.
	Query uint64
	// OnGuard, when non-nil, receives every SwitchUnion guard decision taken
	// during this execution — branch, staleness, region state and violation
	// action in one value — without touching operator state.
	OnGuard func(GuardDecision)
	// Degrade selects the SwitchUnion behavior when the remote branch it
	// picked turns out to be unavailable (the paper's violation actions):
	// fail fast, serve the local branch with a staleness warning, or block
	// until the currency guard can pass.
	Degrade DegradeMode
	// Unavailable classifies an error as link-level unavailability (the
	// condition degraded modes react to). Sessions wire it to
	// remote.IsUnavailable; nil disables degraded handling.
	Unavailable func(error) bool
	// GuardRetry paces DegradeBlock: called before the attempt-th guard
	// re-evaluation for the given region, it waits for replication to make
	// progress and reports whether to keep blocking. Returning false gives
	// up and proceeds with the guard's last choice.
	GuardRetry func(region, attempt int) bool
	// Fetches counts the Remote operators of this execution whose fetch
	// succeeded: the remote queries that answered part of it. Whoever reuses
	// the context resets it between executions.
	Fetches int
	// RemoteOnly sends every SwitchUnion of this execution to its remote
	// branch once its guard has judged: the last run of a query whose local
	// reads met an apply twice.
	RemoteOnly bool
	// Params are the literal values, by slot, of the statement this execution
	// answers; the tree may have been built for another statement of the same
	// shape. Nil when the tree runs for the statement its plan was made from:
	// every literal then answers with its own value.
	Params []sqltypes.Value
}

// lit resolves a literal for this execution (see sqlparser.Literal.Value).
// Safe on a nil context.
func (ctx *EvalContext) lit(l *sqlparser.Literal) sqltypes.Value {
	if ctx == nil {
		return l.Val
	}
	return l.Value(ctx.Params)
}

// clock returns the injected time source, defaulting to the wall clock, so
// measurement sites never have to nil-check. Safe on a nil context (trace
// instrumentation may wrap operators that are opened without one).
func (ctx *EvalContext) clock() vclock.Clock {
	if ctx == nil || ctx.Clock == nil {
		return vclock.Wall{}
	}
	return ctx.Clock
}

// Compiled is an expression compiled against a schema: it evaluates on one
// input row.
type Compiled func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error)

// Expr is a value expression compiled once: input column Col, read by
// ordinal, when Fn is nil, else the closure Fn over the input row. Project
// outputs, aggregate arguments and sort keys are Exprs, so a plain column
// never runs a closure.
type Expr struct {
	Col int
	Fn  Compiled
}

// CompileExpr binds and compiles a value expression against the schema: a
// bare column reference to its ordinal, anything else to a closure.
func CompileExpr(e sqlparser.Expr, schema *Schema) (Expr, error) {
	if ref, ok := e.(*sqlparser.ColumnRef); ok {
		ord, err := schema.Resolve(ref.Table, ref.Column)
		return Expr{Col: ord}, err
	}
	fn, err := Compile(e, schema)
	return Expr{Fn: fn}, err
}

// vec returns e's values at cb's rows, read under cb.Sel: cb's own column,
// or e evaluated at the active rows only into column j of out. A row the
// selection dropped holds the next evaluated value (the last past the end),
// which no reader looks at and which adds no kind to the vector.
func (e Expr) vec(ctx *EvalContext, cb, out *sqltypes.ColBatch, j int) (*sqltypes.Vec, error) {
	if e.Fn == nil {
		return cb.Col(e.Col), nil
	}
	v, val := out.BuildCol(j), sqltypes.Null
	for k, n := 0, cb.NumActive(); k < n; k++ {
		i := at(cb.Sel, k)
		var err error
		if val, err = e.Fn(ctx, cb.Row(i)); err != nil {
			return nil, err
		}
		for v.Len() <= i {
			v.Append(val)
		}
	}
	for v.Len() < cb.Len() {
		v.Append(val)
	}
	return v, nil
}

// Compile binds the AST expression against the schema (Bind) and returns an
// evaluator. What Bind rejects — an aggregate call among them, which must be
// planned into an Aggregate operator first — does not compile.
func Compile(e sqlparser.Expr, schema *Schema) (Compiled, error) {
	if _, err := Bind(e, schema); err != nil {
		return nil, err
	}
	return compileBound(e, schema), nil
}

// compileBound compiles an expression Bind accepted.
func compileBound(e sqlparser.Expr, schema *Schema) Compiled {
	switch e := e.(type) {
	case *sqlparser.Literal:
		return func(ctx *EvalContext, _ sqltypes.Row) (sqltypes.Value, error) { return ctx.lit(e), nil }

	case *sqlparser.ColumnRef:
		idx := schema.Lookup(e.Table, e.Column)
		return func(_ *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			return row[idx], nil
		}

	case *sqlparser.BinaryExpr:
		return compileBinary(e.Op, compileBound(e.Left, schema), compileBound(e.Right, schema))

	case *sqlparser.NotExpr:
		inner := compileBound(e.Inner, schema)
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			v, err := inner(ctx, row)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(!truthy(v)), nil
		}

	case *sqlparser.NegExpr:
		// -x is -1 * x: an INT stays an INT, and -(0.0) is -0.0.
		return compileBinary(sqlparser.OpMul, compileBound(minusOne, schema), compileBound(e.Inner, schema))

	case *sqlparser.BetweenExpr:
		x, lo, hi := compileBound(e.Expr, schema), compileBound(e.Lo, schema), compileBound(e.Hi, schema)
		not := e.Not
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			xv, lov, err := operands(ctx, row, x, lo)
			hiv := sqltypes.Null
			if err == nil {
				hiv, err = hi(ctx, row)
			}
			if err != nil || xv.IsNull() || lov.IsNull() || hiv.IsNull() {
				return sqltypes.Null, err
			}
			in := xv.Compare(lov) >= 0 && xv.Compare(hiv) <= 0
			return sqltypes.NewBool(in != not), nil
		}

	case *sqlparser.InExpr:
		// x IN (a, b) is FALSE OR x = a OR x = b, NULLs and all, as SQL
		// defines it; NOT IN is its negation.
		var or sqlparser.Expr = &sqlparser.Literal{Val: sqltypes.NewBool(false)}
		for _, item := range e.List {
			or = &sqlparser.BinaryExpr{Op: sqlparser.OpOr, Left: or, Right: &sqlparser.BinaryExpr{Op: sqlparser.OpEQ, Left: e.Expr, Right: item}}
		}
		if e.Not {
			or = &sqlparser.NotExpr{Inner: or}
		}
		return compileBound(or, schema)

	case *sqlparser.IsNullExpr:
		x := compileBound(e.Expr, schema)
		not := e.Not
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			v, err := x(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(v.IsNull() != not), nil
		}
	}
	// A function Bind accepted: GETDATE() and its synonyms, or ABS.
	f := e.(*sqlparser.FuncExpr)
	if f.Name != "ABS" {
		return func(ctx *EvalContext, _ sqltypes.Row) (sqltypes.Value, error) {
			return sqltypes.NewTime(ctx.Now), nil
		}
	}
	arg, zero := compileBound(f.Args[0], schema), sqltypes.NewInt(0)
	return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
		v, err := arg(ctx, row)
		if err != nil || v.IsNull() || v.Compare(zero) >= 0 {
			return v, err
		}
		return arith(sqlparser.OpMul, minusOne.Val, v)
	}
}

// minusOne is what a negation multiplies by.
var minusOne = &sqlparser.Literal{Val: sqltypes.NewInt(-1)}

func compileBinary(op sqlparser.BinOp, left, right Compiled) Compiled {
	switch op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		// Three-valued logic: a side that decides the result (FALSE for AND,
		// TRUE for OR) wins over a NULL on the other.
		decides := op == sqlparser.OpOr
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := left(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if !lv.IsNull() && truthy(lv) == decides {
				return sqltypes.NewBool(decides), nil
			}
			rv, err := right(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if !rv.IsNull() && truthy(rv) == decides {
				return sqltypes.NewBool(decides), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(!decides), nil
		}
	case sqlparser.OpEQ, sqlparser.OpNE, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
		bits := truthBits(op)
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			lv, rv, err := operands(ctx, row, left, right)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(cmpTrue(bits, lv.Compare(rv))), nil
		}
	}
	return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) { // arithmetic
		lv, rv, err := operands(ctx, row, left, right)
		if err != nil {
			return sqltypes.Null, err
		}
		return arith(op, lv, rv)
	}
}

// operands evaluates the two operands of an operator, left first.
func operands(ctx *EvalContext, row sqltypes.Row, left, right Compiled) (lv, rv sqltypes.Value, err error) {
	if lv, err = left(ctx, row); err == nil {
		rv, err = right(ctx, row)
	}
	return lv, rv, err
}

// arith applies an arithmetic operator with SQL NULL propagation. Timestamp
// minus a numeric value treats the number as seconds (matching the paper's
// "getdate() - B" currency-guard predicate).
func arith(op sqlparser.BinOp, lv, rv sqltypes.Value) (sqltypes.Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return sqltypes.Null, nil
	}
	if lv.Kind() == sqltypes.KindTime && rv.IsNumeric() && (op == sqlparser.OpAdd || op == sqlparser.OpSub) {
		d := time.Duration(rv.Float() * float64(time.Second))
		if op == sqlparser.OpSub {
			d = -d
		}
		return sqltypes.NewTime(lv.Time().Add(d)), nil
	}
	if !lv.IsNumeric() || !rv.IsNumeric() {
		return sqltypes.Null, fmt.Errorf("exec: arithmetic on %s and %s", lv.Kind(), rv.Kind())
	}
	if lv.Kind() == sqltypes.KindInt && rv.Kind() == sqltypes.KindInt && op != sqlparser.OpDiv {
		a, b := lv.Int(), rv.Int()
		switch op {
		case sqlparser.OpAdd:
			return sqltypes.NewInt(a + b), nil
		case sqlparser.OpSub:
			return sqltypes.NewInt(a - b), nil
		case sqlparser.OpMul:
			return sqltypes.NewInt(a * b), nil
		}
	}
	a, b := lv.Float(), rv.Float()
	switch op {
	case sqlparser.OpAdd:
		return sqltypes.NewFloat(a + b), nil
	case sqlparser.OpSub:
		return sqltypes.NewFloat(a - b), nil
	case sqlparser.OpMul:
		return sqltypes.NewFloat(a * b), nil
	}
	if b == 0 {
		return sqltypes.Null, fmt.Errorf("exec: division by zero")
	}
	return sqltypes.NewFloat(a / b), nil
}

// truthy interprets a value as a boolean predicate result.
func truthy(v sqltypes.Value) bool {
	switch v.Kind() {
	case sqltypes.KindBool:
		return v.Bool()
	case sqltypes.KindInt:
		return v.Int() != 0
	case sqltypes.KindFloat:
		return v.Float() != 0
	default:
		return false
	}
}

// PredicateTrue reports whether a compiled predicate evaluates to TRUE on
// the row (NULL and FALSE both reject, per SQL WHERE semantics).
func PredicateTrue(p Compiled, ctx *EvalContext, row sqltypes.Row) (bool, error) {
	v, err := p(ctx, row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && truthy(v), nil
}
