package exec

import (
	"testing"
	"time"

	"relaxedcc/internal/sqltypes"
)

func TestValuesSchemaAccessor(t *testing.T) {
	s := testSchema("t")
	v := NewValues(s, nil)
	if v.Schema() != s {
		t.Fatal("Values.Schema")
	}
}

func TestTruthyKinds(t *testing.T) {
	cases := []struct {
		v    sqltypes.Value
		want bool
	}{
		{sqltypes.NewBool(true), true},
		{sqltypes.NewBool(false), false},
		{sqltypes.NewInt(0), false},
		{sqltypes.NewInt(5), true},
		{sqltypes.NewFloat(0), false},
		{sqltypes.NewFloat(0.1), true},
		{sqltypes.NewString("x"), false},
		{sqltypes.Null, false},
	}
	for _, c := range cases {
		if got := truthy(c.v); got != c.want {
			t.Errorf("truthy(%v) = %v", c.v, got)
		}
	}
}

func TestHashJoinSemiWithResidual(t *testing.T) {
	// Semi/anti joins with residual predicates exercise anyMatch fully.
	left := NewValues(testSchema("L"), testRows(4))
	right := NewValues(testSchema("R"), testRows(4))
	semi := NewHashJoin(left, right, []int{0}, []int{0}, nil, JoinSemi)
	semi.Residual = compile(t, "L.bal + R.bal > 5", Concat(left.Schema(), right.Schema()))
	rows := drain(t, semi)
	// bal doubles per match: 2*bal > 5 -> bal >= 3: ids 3, 4.
	if len(rows) != 2 || rows[0][0].Int() != 3 {
		t.Fatalf("semi residual = %v", rows)
	}
	left2 := NewValues(testSchema("L"), testRows(4))
	right2 := NewValues(testSchema("R"), testRows(4))
	anti := NewHashJoin(left2, right2, []int{0}, []int{0}, nil, JoinAnti)
	anti.Residual = compile(t, "L.bal + R.bal > 5", Concat(left2.Schema(), right2.Schema()))
	rows = drain(t, anti)
	if len(rows) != 2 || rows[1][0].Int() != 2 {
		t.Fatalf("anti residual = %v", rows)
	}
}

func TestMergeJoinSemiResidual(t *testing.T) {
	left := sortedRows([]int64{1, 2, 3}, 1)
	right := sortedRows([]int64{1, 2, 3}, 2)
	l := NewValues(testSchema("L"), left)
	r := NewValues(testSchema("R"), right)
	mj := NewMergeJoin(l, r, []int{0}, []int{0}, nil, JoinSemi)
	mj.Residual = compile(t, "L.bal + R.bal > 4", Concat(testSchema("L"), testSchema("R")))
	rows := drain(t, mj)
	// 2*bal > 4 -> bal >= 3: only id 3.
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Fatalf("merge semi residual = %v", rows)
	}
}

func TestCollectSwitchUnionsDeep(t *testing.T) {
	s := testSchema("t")
	mkSU := func() *SwitchUnion {
		return &SwitchUnion{
			Children: []Operator{NewValues(s, nil), NewValues(s, nil)},
			Selector: func(*EvalContext) (int, time.Time) { return 0, time.Time{} },
		}
	}
	inner := mkSU()
	nested := &SwitchUnion{
		Children: []Operator{inner, NewValues(s, nil)},
		Selector: func(*EvalContext) (int, time.Time) { return 0, time.Time{} },
	}
	root := &Limit{N: 1, Child: &Sort{
		Child: &Distinct{Child: &Aggregate{
			Child: &HashJoin{Left: nested, Right: NewValues(s, nil)},
			Out:   s,
		}},
	}}
	// IndexLoopJoin outer also walked.
	ilj := &IndexLoopJoin{Outer: mkSU()}
	if got := len(switchUnions(root)); got != 2 {
		t.Fatalf("nested collect = %d", got)
	}
	if got := len(switchUnions(ilj)); got != 1 {
		t.Fatalf("ilj collect = %d", got)
	}
}

func TestSchemaErrors(t *testing.T) {
	if ErrAmbiguous("x").Error() == "" {
		t.Fatal("ErrAmbiguous")
	}
	if ErrNoColumn("", "x").Error() == "" || ErrNoColumn("t", "x").Error() == "" {
		t.Fatal("ErrNoColumn")
	}
}

func TestLimitAfterEnd(t *testing.T) {
	s := testSchema("t")
	l := &Limit{Child: NewValues(s, testRows(2)), N: 5}
	rows := drain(t, l)
	if len(rows) != 2 {
		t.Fatalf("limit above input size = %d", len(rows))
	}
	// NextVec after exhaustion stays exhausted.
	if _, ok, _ := l.NextVec(); ok {
		t.Fatal("NextVec after end")
	}
}

func TestCompileComparisonOnBooleans(t *testing.T) {
	s := testSchema("t")
	row := sqltypes.Row{intv(1), strv("x"), floatv(1)}
	// OR short circuit with error suppressed until needed.
	ok, err := PredicateTrue(compile(t, "id = 1 OR name = 'zzz'", s), ctx(), row)
	if err != nil || !ok {
		t.Fatal("OR short circuit")
	}
	// FALSE OR FALSE.
	ok, _ = PredicateTrue(compile(t, "id = 2 OR name = 'zzz'", s), ctx(), row)
	if ok {
		t.Fatal("false or false")
	}
}

func TestAggregateMinMaxStrings(t *testing.T) {
	s := testSchema("t")
	agg := &Aggregate{
		Child: NewValues(s, testRows(5)),
		Aggs: []AggSpec{
			{Func: "MIN", Arg: compileItem(t, "name", s)},
			{Func: "MAX", Arg: compileItem(t, "name", s)},
		},
		Out: NewSchema(Col{Name: "mn"}, Col{Name: "mx"}),
	}
	rows := drain(t, agg)
	if rows[0][0].Str() != "0" || rows[0][1].Str() != "2" {
		t.Fatalf("string min/max = %v", rows[0])
	}
}

func TestSumOverflowsToFloat(t *testing.T) {
	s := testSchema("t")
	rows := []sqltypes.Row{
		{intv(1), strv("a"), floatv(1)},
		{sqltypes.NewInt(2), strv("a"), sqltypes.NewFloat(2.5)},
	}
	agg := &Aggregate{
		Child: NewValues(s, rows),
		Aggs:  []AggSpec{{Func: "SUM", Arg: compileItem(t, "bal", s)}},
		Out:   NewSchema(Col{Name: "s"}),
	}
	out := drain(t, agg)
	if out[0][0].Kind() != sqltypes.KindFloat || out[0][0].Float() != 3.5 {
		t.Fatalf("mixed sum = %v", out[0][0])
	}
}
