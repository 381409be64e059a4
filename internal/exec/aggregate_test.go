package exec_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqltypes"
)

// aggOut is an output schema of n columns; the aggregate only reads its width.
func aggOut(n int) *exec.Schema {
	cols := make([]exec.Col, n)
	for i := range cols {
		cols[i] = exec.Col{Name: fmt.Sprintf("c%d", i)}
	}
	return exec.NewSchema(cols...)
}

// col is a compiled column reference, as the planner passes an aggregate
// argument next to its ordinal.
func col(i int) exec.Compiled {
	return func(_ *exec.EvalContext, r sqltypes.Row) (sqltypes.Value, error) { return r[i], nil }
}

// allAggs is every aggregate function over column arg grouped by column key,
// the arguments read by ordinal or, without ordinals, through their closures.
func allAggs(child exec.Operator, key, arg int, ordinals bool) *exec.Aggregate {
	a := &exec.Aggregate{
		Child:     child,
		GroupCols: []int{key},
		Aggs: []exec.AggSpec{
			{Func: "COUNT", Star: true}, {Func: "COUNT", Arg: col(arg)}, {Func: "SUM", Arg: col(arg)},
			{Func: "AVG", Arg: col(arg)}, {Func: "MIN", Arg: col(arg)}, {Func: "MAX", Arg: col(arg)},
		},
		Out: aggOut(7),
	}
	if ordinals {
		a.ArgCols = []int{-1, arg, arg, arg, arg, arg}
	}
	return a
}

// TestAggregateMatchesReference runs the vectorized hash aggregate against
// the reference evaluator's per-group fold: group keys that are NULL, of
// mixed kinds, NaN and ±0; a SUM promoted to FLOAT mid-group by a FLOAT
// input and by int64 overflow; MIN/MAX over strings and timestamps; HAVING;
// more groups than a batch; child batches that carry a selection vector;
// arguments given as expressions instead of ordinals; empty input.
func TestAggregateMatchesReference(t *testing.T) {
	s := exec.TestSchema("t") // id INT, name STRING, bal FLOAT
	i, f, str, null := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.Null
	day := func(d int) sqltypes.Value {
		return sqltypes.NewTime(exec.TestNow.Add(time.Duration(d) * 24 * time.Hour))
	}
	nan, negZero := f(math.NaN()), f(math.Copysign(0, -1))
	odd := []sqltypes.Row{ // key, payload, amount
		{null, str("b"), i(1)}, {i(2), str("a"), f(0.5)}, {f(2), null, i(4)}, {str("2"), str("c"), null},
		{nan, str("z"), i(7)}, {nan, str("y"), f(1.25)}, {negZero, day(3), i(math.MaxInt64)}, {f(0), day(1), i(5)},
		{null, str("a"), null}, {i(0), day(2), i(-3)}, {sqltypes.NewBool(true), null, null}, {f(2), str("a"), i(1)},
	}
	many := make([]sqltypes.Row, 3000)
	for k := range many {
		many[k] = sqltypes.Row{i(int64(k * 7919 % 2500)), str(fmt.Sprint(k % 7)), f(float64(k) / 8)}
	}
	tbl := exec.TestTable(t) // ids 1..100
	trees := map[string]func() exec.Operator{
		"odd keys, amounts":           func() exec.Operator { return allAggs(exec.NewValues(s, odd), 0, 2, true) },
		"odd keys, payloads":          func() exec.Operator { return allAggsNoSum(exec.NewValues(s, odd), 0, 1) },
		"odd keys, argument closures": func() exec.Operator { return allAggs(exec.NewValues(s, odd), 0, 2, false) },
		"group by payload":            func() exec.Operator { return allAggs(exec.NewValues(s, odd), 1, 2, true) },
		"more groups than a batch": func() exec.Operator {
			return allAggs(exec.NewValues(s, many), 0, 2, true)
		},
		"no group by": func() exec.Operator {
			a := allAggs(exec.NewValues(s, many), 0, 2, true)
			a.GroupCols, a.Out = nil, aggOut(6)
			return a
		},
		"no group by, no input": func() exec.Operator {
			a := allAggs(exec.NewValues(s, nil), 0, 2, true)
			a.GroupCols, a.Out = nil, aggOut(6)
			return a
		},
		"group by, no input": func() exec.Operator { return allAggs(exec.NewValues(s, nil), 0, 2, true) },
		"selected batches": func() exec.Operator {
			sc := exec.NewScan(tbl, s)
			sc.Filter = exec.TestCompile(t, "id > 10 AND bal < 95", s)
			sc.FilterKernel = exec.TestKernel(t, "id > 10 AND bal < 95", s)
			return allAggs(sc, 1, 2, true)
		},
		"columnar input, expression argument": func() exec.Operator {
			l, r := exec.NewValues(s, exec.TestRows(40)), exec.NewValues(exec.TestSchema("R"), exec.TestRows(25))
			j := exec.NewHashJoin(l, r, []int{0}, []int{0}, nil, exec.JoinInner)
			return &exec.Aggregate{
				Child:     j,
				GroupCols: []int{1},
				Aggs:      []exec.AggSpec{{Func: "SUM", Arg: exec.TestCompileItem(t, "t.bal * 2 + R.id", j.Schema())}, {Func: "MAX", Arg: col(5)}},
				ArgCols:   []int{-1, 5},
				Out:       aggOut(3),
			}
		},
		"having": func() exec.Operator {
			a := allAggs(exec.NewValues(s, many), 1, 0, true)
			return &exec.Filter{Child: a, Pred: func(_ *exec.EvalContext, r sqltypes.Row) (sqltypes.Value, error) {
				return sqltypes.NewBool(r[1].Int() > 428), nil
			}}
		},
		"distinct": func() exec.Operator {
			return &exec.Distinct{Child: &exec.Project{Child: exec.NewValues(s, append(odd, odd...)), Cols: []int{0, 2}, Out: aggOut(2)}}
		},
	}
	for name, build := range trees {
		againstReference(t, name, build, true)
	}

	// An aggregate error reaches the caller from either input path.
	for _, ordinals := range []bool{true, false} {
		if _, err := exec.Run(allAggs(exec.NewValues(s, odd), 0, 1, ordinals), &exec.EvalContext{Now: exec.TestNow}, 0); err == nil || err.Error() != "exec: SUM of VARCHAR" {
			t.Errorf("SUM over strings (ordinals %v): error %v", ordinals, err)
		}
	}
}

// allAggsNoSum is allAggs without SUM and AVG, for arguments that are not
// numbers.
func allAggsNoSum(child exec.Operator, key, arg int) *exec.Aggregate {
	a := allAggs(child, key, arg, true)
	a.Aggs = slices.Delete(a.Aggs, 2, 4)
	a.ArgCols, a.Out = slices.Delete(a.ArgCols, 2, 4), aggOut(5)
	return a
}

// TestAggregateOverParallelScan aggregates per morsel inside the scan's
// workers at DOP 1, 2 and 4 and compares with the reference over the same
// scan. Float sums are compared to twelve digits: partial sums merge in
// morsel order, the reference adds row by row. Two runs of one tree, and of
// a fresh one, must agree to the last bit.
func TestAggregateOverParallelScan(t *testing.T) {
	tbl := exec.TestBigTable(t, 20000)
	s := exec.TestSchema("t")
	for _, dop := range []int{1, 2, 4} {
		build := func() *exec.Aggregate {
			ps := exec.NewParallelScan(tbl, s)
			ps.DOP = dop
			ps.Filter = exec.TestCompile(t, "id > 100", s)
			ps.FilterKernel = exec.TestKernel(t, "id > 100", s)
			a := allAggs(ps, 1, 2, true)
			a.Aggs = append(a.Aggs, exec.AggSpec{Func: "SUM", Arg: exec.TestCompileItem(t, "bal / 3", s)})
			a.ArgCols, a.Out = append(a.ArgCols, -1), aggOut(8)
			return a
		}
		ctx := &exec.EvalContext{Now: exec.TestNow}
		ref, err := reference(build(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		tree := build()
		var first []string
		for run := 0; run < 4; run++ {
			if run == 3 {
				tree = build()
			}
			got, err := exec.Run(tree, ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := renderMultiset(ref); !slices.Equal(renderMultiset(got.Rows), want) {
				t.Fatalf("dop %d run %d: %v, reference %v", dop, run, renderMultiset(got.Rows), want)
			}
			exact := make([]string, len(got.Rows))
			for k, r := range got.Rows {
				exact[k] = fmt.Sprintf("%x", sqltypes.RowKey(r))
			}
			if first == nil {
				first = exact
			} else if !slices.Equal(exact, first) {
				t.Fatalf("dop %d: run %d differs from run 0 in its bits or its order", dop, run)
			}
		}
		if scan := tree.Child.(*exec.ParallelScan); scan.RowsScanned() != 20000 || scan.EffectiveDOP() < 1 {
			t.Errorf("dop %d: scan read %d rows at effective DOP %d", dop, scan.RowsScanned(), scan.EffectiveDOP())
		}
	}
}

// TestSortTopN checks the bounded-heap mode against the full sort: Sort with
// TopN n emits exactly the first n rows of the full stable order — ties keep
// their input order — for n below, at and above the input size, ascending,
// descending and on two keys.
func TestSortTopN(t *testing.T) {
	s := exec.TestSchema("t")
	rows := make([]sqltypes.Row, 200)
	for k := range rows {
		rows[k] = sqltypes.Row{sqltypes.NewInt(int64(k)), sqltypes.NewString(fmt.Sprint(k * 31 % 5)), sqltypes.NewFloat(float64(k * 17 % 23))}
	}
	rows[50][2], rows[150][2] = sqltypes.Null, sqltypes.Null
	for _, keys := range []struct {
		cols []int
		desc []bool
	}{{[]int{2}, []bool{false}}, {[]int{2}, []bool{true}}, {[]int{1, 2}, []bool{true, false}}} {
		sorted := func(topN int64) *exec.Sort {
			srt := &exec.Sort{Child: exec.NewValues(s, rows), Desc: keys.desc, TopN: topN}
			for _, c := range keys.cols {
				srt.Keys = append(srt.Keys, col(c))
			}
			return srt
		}
		full, err := exec.Run(sorted(0), &exec.EvalContext{Now: exec.TestNow}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{1, 2, 10, 199, 200, 201, 1000} {
			name := fmt.Sprintf("keys %v desc %v top %d", keys.cols, keys.desc, n)
			againstReference(t, name, func() exec.Operator { return &exec.Limit{Child: sorted(n), N: n} }, true)
			got, err := exec.Run(sorted(n), &exec.EvalContext{Now: exec.TestNow, BatchSize: 7}, 0)
			if err != nil {
				t.Fatal(err)
			}
			exec.AssertSameRows(t, name, got.Rows, full.Rows[:min(int(n), len(rows))], true)
		}
	}
}
