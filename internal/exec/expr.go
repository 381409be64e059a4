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
	// during this execution — the hook metrics and tracing layers use to
	// observe branch picks and staleness without touching operator state.
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
	// OnViolation, when non-nil, receives every degraded-mode event — a
	// remote failure absorbed by the local branch, a blocked guard, or a
	// fail-fast — so sessions can surface warnings and count metrics.
	OnViolation func(Violation)
	// GuardRetry paces DegradeBlock: called before the attempt-th guard
	// re-evaluation for the given region, it waits for replication to make
	// progress and reports whether to keep blocking. Returning false gives
	// up and proceeds with the guard's last choice.
	GuardRetry func(region, attempt int) bool
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

// CompileExpr compiles a value expression against the schema: a bare column
// reference to its ordinal, anything else to a closure.
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

// Compile resolves column references in the AST expression against the
// schema and returns an evaluator. Aggregate function calls are rejected —
// they must be planned into an Aggregate operator first.
func Compile(e sqlparser.Expr, schema *Schema) (Compiled, error) {
	switch e := e.(type) {
	case *sqlparser.Literal:
		if e.Slot > 0 {
			return func(ctx *EvalContext, _ sqltypes.Row) (sqltypes.Value, error) { return ctx.lit(e), nil }, nil
		}
		v := e.Val
		return func(*EvalContext, sqltypes.Row) (sqltypes.Value, error) { return v, nil }, nil

	case *sqlparser.ColumnRef:
		idx, err := schema.Resolve(e.Table, e.Column)
		if err != nil {
			return nil, err
		}
		return func(_ *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			return row[idx], nil
		}, nil

	case *sqlparser.BinaryExpr:
		left, err := Compile(e.Left, schema)
		if err != nil {
			return nil, err
		}
		right, err := Compile(e.Right, schema)
		if err != nil {
			return nil, err
		}
		return compileBinary(e.Op, left, right)

	case *sqlparser.NotExpr:
		inner, err := Compile(e.Inner, schema)
		if err != nil {
			return nil, err
		}
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			v, err := inner(ctx, row)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(!truthy(v)), nil
		}, nil

	case *sqlparser.NegExpr:
		inner, err := Compile(e.Inner, schema)
		if err != nil {
			return nil, err
		}
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			v, err := inner(ctx, row)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			switch v.Kind() {
			case sqltypes.KindInt:
				return sqltypes.NewInt(-v.Int()), nil
			case sqltypes.KindFloat:
				return sqltypes.NewFloat(-v.Float()), nil
			default:
				return sqltypes.Null, fmt.Errorf("exec: cannot negate %s", v.Kind())
			}
		}, nil

	case *sqlparser.BetweenExpr:
		x, err := Compile(e.Expr, schema)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(e.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(e.Hi, schema)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			xv, err := x(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			lov, err := lo(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			hiv, err := hi(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if xv.IsNull() || lov.IsNull() || hiv.IsNull() {
				return sqltypes.Null, nil
			}
			in := xv.Compare(lov) >= 0 && xv.Compare(hiv) <= 0
			return sqltypes.NewBool(in != not), nil
		}, nil

	case *sqlparser.InExpr:
		if e.Subquery != nil {
			return nil, fmt.Errorf("exec: IN subquery must be planned as a join")
		}
		x, err := Compile(e.Expr, schema)
		if err != nil {
			return nil, err
		}
		items := make([]Compiled, len(e.List))
		for i, it := range e.List {
			items[i], err = Compile(it, schema)
			if err != nil {
				return nil, err
			}
		}
		not := e.Not
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			xv, err := x(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if xv.IsNull() {
				return sqltypes.Null, nil
			}
			sawNull := false
			for _, item := range items {
				iv, err := item(ctx, row)
				if err != nil {
					return sqltypes.Null, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if xv.Compare(iv) == 0 {
					return sqltypes.NewBool(!not), nil
				}
			}
			if sawNull {
				return sqltypes.Null, nil // SQL three-valued IN
			}
			return sqltypes.NewBool(not), nil
		}, nil

	case *sqlparser.ExistsExpr:
		return nil, fmt.Errorf("exec: EXISTS must be planned as a semi-join")

	case *sqlparser.IsNullExpr:
		x, err := Compile(e.Expr, schema)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			v, err := x(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(v.IsNull() != not), nil
		}, nil

	case *sqlparser.FuncExpr:
		if e.IsAggregate() {
			return nil, fmt.Errorf("exec: aggregate %s outside an Aggregate operator", e.Name)
		}
		switch e.Name {
		case "GETDATE", "NOW", "CURRENT_TIMESTAMP":
			if len(e.Args) != 0 {
				return nil, fmt.Errorf("exec: %s takes no arguments", e.Name)
			}
			return func(ctx *EvalContext, _ sqltypes.Row) (sqltypes.Value, error) {
				return sqltypes.NewTime(ctx.Now), nil
			}, nil
		case "ABS":
			if len(e.Args) != 1 {
				return nil, fmt.Errorf("exec: ABS takes one argument")
			}
			arg, err := Compile(e.Args[0], schema)
			if err != nil {
				return nil, err
			}
			return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
				v, err := arg(ctx, row)
				if err != nil || v.IsNull() {
					return sqltypes.Null, err
				}
				switch v.Kind() {
				case sqltypes.KindInt:
					if v.Int() < 0 {
						return sqltypes.NewInt(-v.Int()), nil
					}
					return v, nil
				case sqltypes.KindFloat:
					if v.Float() < 0 {
						return sqltypes.NewFloat(-v.Float()), nil
					}
					return v, nil
				default:
					return sqltypes.Null, fmt.Errorf("exec: ABS of %s", v.Kind())
				}
			}, nil
		default:
			return nil, fmt.Errorf("exec: unknown function %s", e.Name)
		}

	default:
		return nil, fmt.Errorf("exec: cannot compile %T", e)
	}
}

func compileBinary(op sqlparser.BinOp, left, right Compiled) (Compiled, error) {
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
		}, nil
	case sqlparser.OpEQ, sqlparser.OpNE, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
		bits := truthBits(op)
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := left(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := right(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			if err := comparableValues(lv, rv); err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(cmpTrue(bits, lv.Compare(rv))), nil
		}, nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
		return func(ctx *EvalContext, row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := left(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := right(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return arith(op, lv, rv)
		}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported binary operator %v", op)
	}
}

// arith applies an arithmetic operator with SQL NULL propagation. Timestamp
// minus a numeric value treats the number as seconds (matching the paper's
// "getdate() - B" currency-guard predicate).
func arith(op sqlparser.BinOp, lv, rv sqltypes.Value) (sqltypes.Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return sqltypes.Null, nil
	}
	if lv.Kind() == sqltypes.KindTime && rv.IsNumeric() {
		secs := rv.Float()
		d := time.Duration(secs * float64(time.Second))
		switch op {
		case sqlparser.OpAdd:
			return sqltypes.NewTime(lv.Time().Add(d)), nil
		case sqlparser.OpSub:
			return sqltypes.NewTime(lv.Time().Add(-d)), nil
		}
		return sqltypes.Null, fmt.Errorf("exec: bad timestamp arithmetic %v", op)
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
	case sqlparser.OpDiv:
		if b == 0 {
			return sqltypes.Null, fmt.Errorf("exec: division by zero")
		}
		return sqltypes.NewFloat(a / b), nil
	}
	return sqltypes.Null, fmt.Errorf("exec: bad arithmetic operator %v", op)
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
