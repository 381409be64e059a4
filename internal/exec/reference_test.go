package exec_test

import (
	"fmt"
	"sort"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// reference evaluates an operator tree the naive way: every operator's
// whole output as a row list, by nested loops. It is the executor's
// differential oracle. It shares the scalar Compiled closures (and the
// storage engine) with production and none of the batching,
// selection-vector, hash-table, kernel or buffer-reuse code: a key ordinal
// indexes a row the reference materialized itself.
func reference(op exec.Operator, ctx *exec.EvalContext) ([]sqltypes.Row, error) {
	switch op := op.(type) {
	case interface{ Unwrap() exec.Operator }: // exec.Traced, test shims
		return reference(op.Unwrap(), ctx)
	case *exec.Values:
		return op.Rows, nil
	case *exec.Remote:
		return op.Fetch(ctx)
	case *exec.SwitchUnion:
		idx, _ := op.Selector(ctx)
		return reference(op.Children[idx], ctx)
	case *exec.Scan:
		var rows []sqltypes.Row
		var err error
		if op.Index == "" {
			op.Table.Scan(func(r sqltypes.Row) bool { rows = append(rows, r.Clone()); return true })
		} else if rows, err = refIndex(op.Table, op.Index, op.Lo, op.Hi); err != nil {
			return nil, err
		}
		return refFilter(rows, op.Filter, ctx)
	case *exec.ParallelScan:
		def := op.Table.Def()
		rows, err := refIndex(op.Table, def.IndexOn(def.PrimaryKey...).Name, op.Lo, op.Hi)
		if err != nil {
			return nil, err
		}
		return refFilter(rows, op.Filter, ctx)
	case *exec.Filter:
		rows, err := reference(op.Child, ctx)
		if err != nil {
			return nil, err
		}
		return refFilter(rows, op.Pred, ctx)
	case *exec.Project:
		in, err := reference(op.Child, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]sqltypes.Row, len(in))
		for i, r := range in {
			if out[i], err = refEval(op.Exprs, ctx, r); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *exec.HashJoin:
		return refJoin(op.Left, op.Right, op.LeftKeys, op.RightKeys, op.Residual, op.Kind, ctx)
	case *exec.MergeJoin:
		return refJoin(op.Left, op.Right, op.LeftKeys, op.RightKeys, op.Residual, op.Kind, ctx)
	case *exec.IndexLoopJoin:
		outer, err := reference(op.Outer, ctx)
		if err != nil {
			return nil, err
		}
		return refMatch(outer, op.Residual, op.Kind, ctx, func(l sqltypes.Row) ([]sqltypes.Row, error) {
			key := pick(l, op.OuterKey)
			if hasNull(key) {
				return nil, nil
			}
			b := storage.Bound{Vals: key, Inclusive: true}
			return refIndex(op.Inner, op.Index, b, b)
		})
	case *exec.Sort:
		in, err := reference(op.Child, ctx)
		if err != nil {
			return nil, err
		}
		keys := make([]sqltypes.Row, len(in))
		perm := make([]int, len(in))
		for i, r := range in {
			if keys[i], err = refEval(op.Keys, ctx, r); err != nil {
				return nil, err
			}
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			ka, kb := keys[perm[a]], keys[perm[b]]
			for k := range ka {
				if c := ka[k].Compare(kb[k]); c != 0 {
					return (c < 0) != op.Desc[k]
				}
			}
			return false
		})
		out := make([]sqltypes.Row, len(in))
		for i, j := range perm {
			out[i] = in[j]
		}
		return out, nil
	case *exec.Limit:
		rows, err := reference(op.Child, ctx)
		if err != nil || int64(len(rows)) <= op.N {
			return rows, err
		}
		return rows[:op.N], nil
	case *exec.Distinct:
		in, err := reference(op.Child, ctx)
		seen := map[string]bool{}
		var out []sqltypes.Row
		for _, r := range in {
			if k := groupKey(r); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out, err
	case *exec.Aggregate:
		return refAggregate(op, ctx)
	default:
		return nil, fmt.Errorf("reference: unknown operator %T", op)
	}
}

func refEval(exprs []exec.Expr, ctx *exec.EvalContext, row sqltypes.Row) (sqltypes.Row, error) {
	out := make(sqltypes.Row, len(exprs))
	for i, e := range exprs {
		var err error
		if out[i], err = e.Eval(ctx, row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refFilter keeps the rows a predicate's row form holds TRUE on; a nil
// *exec.Pred keeps every row.
func refFilter(rows []sqltypes.Row, p *exec.Pred, ctx *exec.EvalContext) ([]sqltypes.Row, error) {
	if p == nil {
		return rows, nil
	}
	return refWhere(rows, p.Row, ctx)
}

func refWhere(rows []sqltypes.Row, pred exec.Compiled, ctx *exec.EvalContext) ([]sqltypes.Row, error) {
	if pred == nil {
		return rows, nil
	}
	var out []sqltypes.Row
	for _, r := range rows {
		ok, err := exec.PredicateTrue(pred, ctx, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// pick returns the values of row in the columns ords.
func pick(row sqltypes.Row, ords []int) sqltypes.Row {
	out := make(sqltypes.Row, len(ords))
	for i, ord := range ords {
		out[i] = row[ord]
	}
	return out
}

func hasNull(r sqltypes.Row) bool {
	for _, v := range r {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func concat(l, r sqltypes.Row) sqltypes.Row {
	return append(append(sqltypes.Row{}, l...), r...)
}

// refJoin is an equi-join by nested loops: keys join when neither holds a
// NULL and their sqltypes.Key encodings are equal (INT 2 joins FLOAT 2.0).
func refJoin(left, right exec.Operator, lk, rk []int, residual exec.Compiled, kind exec.JoinKind, ctx *exec.EvalContext) ([]sqltypes.Row, error) {
	lrows, err := reference(left, ctx)
	if err != nil {
		return nil, err
	}
	rrows, err := reference(right, ctx)
	if err != nil {
		return nil, err
	}
	rkeys := make([]string, len(rrows)) // "" marks a NULL key, which never joins
	for i, r := range rrows {
		rkeys[i] = refKey(r, rk)
	}
	return refMatch(lrows, residual, kind, ctx, func(l sqltypes.Row) ([]sqltypes.Row, error) {
		lkey := refKey(l, lk)
		var matches []sqltypes.Row
		for i, r := range rrows {
			if lkey != "" && lkey == rkeys[i] {
				matches = append(matches, r)
			}
		}
		return matches, nil
	})
}

func refKey(row sqltypes.Row, ords []int) string {
	if key := pick(row, ords); !hasNull(key) {
		return sqltypes.RowKey(key)
	}
	return ""
}

// refMatch emits, per left row in order, its residual-passing matches
// (inner), or the left row itself when one exists (semi) or none does (anti).
func refMatch(lrows []sqltypes.Row, residual exec.Compiled, kind exec.JoinKind, ctx *exec.EvalContext, matches func(sqltypes.Row) ([]sqltypes.Row, error)) ([]sqltypes.Row, error) {
	var out []sqltypes.Row
	for _, l := range lrows {
		ms, err := matches(l)
		if err != nil {
			return nil, err
		}
		joined := make([]sqltypes.Row, 0, len(ms))
		for _, m := range ms {
			joined = append(joined, concat(l, m))
		}
		if joined, err = refWhere(joined, residual, ctx); err != nil {
			return nil, err
		}
		switch {
		case kind == exec.JoinInner:
			out = append(out, joined...)
		case (len(joined) > 0) == (kind == exec.JoinSemi):
			out = append(out, l)
		}
	}
	return out, nil
}

// groupKey is the identity grouping and DISTINCT go by: sqltypes.Key
// equality (NULL equals NULL, INT 2 equals FLOAT 2.0, NaN equals itself)
// with -0 equal to +0.
func groupKey(vals sqltypes.Row) string {
	norm := make(sqltypes.Row, len(vals))
	for i, v := range vals {
		if norm[i] = v; v.Kind() == sqltypes.KindFloat && v.Float() == 0 {
			norm[i] = sqltypes.NewFloat(0)
		}
	}
	return sqltypes.RowKey(norm)
}

// refAggregate groups in first-seen order and folds each group's argument
// values: aggregates skip NULLs, SUM stays integral until a FLOAT appears or
// the sum leaves int64, and an empty input without GROUP BY still yields one
// row.
func refAggregate(op *exec.Aggregate, ctx *exec.EvalContext) ([]sqltypes.Row, error) {
	in, err := reference(op.Child, ctx)
	if err != nil {
		return nil, err
	}
	groups := map[string][]sqltypes.Row{}
	var order []sqltypes.Row
	for _, r := range in {
		g := pick(r, op.GroupCols)
		k := groupKey(g)
		if _, ok := groups[k]; !ok {
			order = append(order, g)
		}
		groups[k] = append(groups[k], r)
	}
	if len(order) == 0 && len(op.GroupCols) == 0 {
		order = append(order, sqltypes.Row{})
	}
	var out []sqltypes.Row
	for _, g := range order {
		row := append(sqltypes.Row{}, g...)
		for _, spec := range op.Aggs {
			var vals []sqltypes.Value
			for _, r := range groups[groupKey(g)] {
				v := sqltypes.NewInt(1) // COUNT(*) counts rows
				if !spec.Star {
					if v, err = spec.Arg.Eval(ctx, r); err != nil {
						return nil, err
					}
				}
				if !v.IsNull() {
					vals = append(vals, v)
				}
			}
			v, err := refFold(spec.Func, vals)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out, nil
}

func refFold(fn string, vals []sqltypes.Value) (sqltypes.Value, error) {
	sum := fn == "SUM" || fn == "AVG"
	for _, v := range vals {
		if sum && !v.IsNumeric() {
			return sqltypes.Null, fmt.Errorf("exec: %s of %s", fn, v.Kind())
		}
	}
	if fn == "COUNT" {
		return sqltypes.NewInt(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return sqltypes.Null, nil
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		switch {
		case fn == "MIN" && v.Compare(acc) < 0, fn == "MAX" && v.Compare(acc) > 0:
			acc = v
		case sum && acc.Kind() == sqltypes.KindInt && v.Kind() == sqltypes.KindInt && !addOverflows(acc.Int(), v.Int()):
			acc = sqltypes.NewInt(acc.Int() + v.Int())
		case sum: // a FLOAT on either side, or an integer sum that left int64
			acc = sqltypes.NewFloat(acc.Float() + v.Float())
		}
	}
	if fn == "AVG" {
		return sqltypes.NewFloat(acc.Float() / float64(len(vals))), nil
	}
	return acc, nil
}

// addOverflows reports whether a+b leaves int64, by the textbook rule: the
// operands agree in sign and the wrapped sum does not.
func addOverflows(a, b int64) bool {
	s := a + b
	return (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0)
}

// refIndex returns the rows of an index range, materialized one by one.
func refIndex(t *storage.Table, index string, lo, hi storage.Bound) ([]sqltypes.Row, error) {
	var l sqltypes.Lanes
	if err := t.ScanIndex(index, lo, hi, &l); err != nil {
		return nil, err
	}
	rows := make([]sqltypes.Row, l.Len())
	for i := range rows {
		rows[i] = l.AppendRow(nil, i)
	}
	return rows, nil
}
