package exec

import (
	"fmt"

	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// Bind gives e its kind, from schema's declared column kinds and its
// literals' kinds, and rejects what no row could evaluate: a comparison (= to
// >=, BETWEEN, IN) of kinds Comparable refuses, arithmetic, ABS or negation
// on a non-number, and what only a planner runs (an aggregate, EXISTS, an IN
// subquery) or nothing does (an unknown function). It is the one home of the
// kind rule: opt.Algebrize binds a statement before it chooses an access
// path, the back end binds DML before it touches a row, and Compile binds
// what it compiles. A text's skeleton fixes its literals' kinds, so the
// verdict holds for its whole shape. NULL, and a column of undeclared kind,
// binds as KindNull: comparable with anything, and arithmetic over it is NULL.
func Bind(e sqlparser.Expr, schema *Schema) (sqltypes.Kind, error) {
	var err error
	b := binder{schema: schema, err: &err}
	k := b.kind(e)
	return k, err
}

// binder walks an expression once; the first error sticks and ends the walk.
// It points at the error, so that the schema does not escape through it.
type binder struct {
	schema *Schema
	err    *error
}

func (b *binder) fail(format string, args ...any) sqltypes.Kind {
	if *b.err == nil {
		*b.err = fmt.Errorf(format, args...)
	}
	return sqltypes.KindNull
}

func (b *binder) kind(e sqlparser.Expr) sqltypes.Kind {
	if *b.err != nil {
		return sqltypes.KindNull
	}
	switch e := e.(type) {
	case *sqlparser.Literal:
		return e.Kind()
	case *sqlparser.ColumnRef:
		i, err := b.schema.Resolve(e.Table, e.Column)
		if err != nil {
			*b.err = err
			return sqltypes.KindNull
		}
		return b.schema.Cols[i].Kind
	case *sqlparser.BinaryExpr:
		l, r := b.kind(e.Left), b.kind(e.Right)
		switch e.Op {
		case sqlparser.OpAnd, sqlparser.OpOr:
			return sqltypes.KindBool
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			return b.arith(e.Op, l, r)
		}
		return b.compare(l, r)
	case *sqlparser.NotExpr:
		b.kind(e.Inner)
		return sqltypes.KindBool
	case *sqlparser.IsNullExpr:
		b.kind(e.Expr)
		return sqltypes.KindBool
	case *sqlparser.NegExpr:
		return b.number("exec: cannot negate %s", b.kind(e.Inner))
	case *sqlparser.BetweenExpr:
		x := b.kind(e.Expr)
		b.compare(x, b.kind(e.Lo))
		return b.compare(x, b.kind(e.Hi))
	case *sqlparser.InExpr:
		if e.Subquery != nil {
			return b.fail("exec: IN subquery must be planned as a join")
		}
		x := b.kind(e.Expr)
		for _, item := range e.List {
			b.compare(x, b.kind(item))
		}
		return sqltypes.KindBool
	case *sqlparser.ExistsExpr:
		return b.fail("exec: EXISTS must be planned as a semi-join")
	case *sqlparser.FuncExpr:
		switch {
		case e.IsAggregate():
			return b.fail("exec: aggregate %s outside an Aggregate operator", e.Name)
		case e.Name == "GETDATE" || e.Name == "NOW" || e.Name == "CURRENT_TIMESTAMP":
			if len(e.Args) != 0 {
				return b.fail("exec: %s takes no arguments", e.Name)
			}
			return sqltypes.KindTime
		case e.Name != "ABS":
			return b.fail("exec: unknown function %s", e.Name)
		case len(e.Args) != 1:
			return b.fail("exec: ABS takes one argument")
		}
		return b.number("exec: ABS of %s", b.kind(e.Args[0]))
	}
	return b.fail("exec: cannot compile %T", e)
}

// compare is the kind of a comparison of kinds l and r: BOOLEAN, if they are
// Comparable.
func (b *binder) compare(l, r sqltypes.Kind) sqltypes.Kind {
	if !Comparable(l, r) {
		return b.fail("exec: cannot compare %s with %s", l, r)
	}
	return sqltypes.KindBool
}

// number is k, the kind of the operand of a negation or an ABS, which must
// be a number.
func (b *binder) number(format string, k sqltypes.Kind) sqltypes.Kind {
	if !numeric(k) {
		return b.fail(format, k)
	}
	return k
}

// arith is the kind of l op r, as arith computes it: a TIMESTAMP plus or
// minus seconds is a TIMESTAMP, two INTs make an INT but by division, other
// numbers a FLOAT, and NULL makes NULL.
func (b *binder) arith(op sqlparser.BinOp, l, r sqltypes.Kind) sqltypes.Kind {
	switch {
	case l == sqltypes.KindTime && numeric(r) && (op == sqlparser.OpAdd || op == sqlparser.OpSub):
		return l
	case !numeric(l) || !numeric(r):
		return b.fail("exec: arithmetic on %s and %s", l, r)
	case l == sqltypes.KindNull || r == sqltypes.KindNull:
		return sqltypes.KindNull
	case l == sqltypes.KindInt && r == sqltypes.KindInt && op != sqlparser.OpDiv:
		return sqltypes.KindInt
	}
	return sqltypes.KindFloat
}

// AggKind is the kind of aggregate fn over an argument of kind arg: COUNT is
// BIGINT, AVG DOUBLE, SUM its argument's numeric kind, MIN and MAX their
// argument's kind. SUM and AVG reject a non-number. (A BIGINT SUM that
// overflows int64 is computed, and returned, as a DOUBLE.)
func AggKind(fn string, arg sqltypes.Kind) (sqltypes.Kind, error) {
	switch {
	case fn == "COUNT":
		return sqltypes.KindInt, nil
	case fn != "SUM" && fn != "AVG":
		return arg, nil
	case !numeric(arg):
		return 0, fmt.Errorf("exec: %s of %s", fn, arg)
	case fn == "AVG":
		return sqltypes.KindFloat, nil
	}
	return arg, nil
}

// Comparable reports whether values of kinds a and b may meet, in a
// comparison or as a value stored in a column of the other kind: they are
// the same kind, both numbers (INT and FLOAT compare exactly, see
// sqltypes.Value.Compare), or either is NULL.
func Comparable(a, b sqltypes.Kind) bool {
	return a == b || numeric(a) && numeric(b) || a == sqltypes.KindNull || b == sqltypes.KindNull
}

// numeric reports whether k is INT, FLOAT or NULL: what arithmetic takes.
func numeric(k sqltypes.Kind) bool {
	return k == sqltypes.KindInt || k == sqltypes.KindFloat || k == sqltypes.KindNull
}
