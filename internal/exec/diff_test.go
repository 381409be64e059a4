package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/tpcd"
)

// diffSizes are the batch sizes every differential runs at: single-row and
// two-row batches (every boundary is a batch boundary), the default, and one
// past it.
var diffSizes = []int{1, 2, exec.DefaultBatchSize, exec.DefaultBatchSize + 1}

// renderMultiset renders rows for multiset comparison. Floats keep twelve
// significant digits: a parallel scan feeds SUM in a different order than
// the reference, which moves the last bits.
func renderMultiset(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			if v.Kind() == sqltypes.KindFloat {
				b.WriteString(strconv.FormatFloat(v.Float(), 'g', 12, 64))
			} else {
				fmt.Fprint(&b, v)
			}
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// checked wraps an operator and asserts the NextVec contract on every batch
// that crosses it: a returned batch is non-empty, and its selection is
// ascending and within the physical rows. open records whether the edge is
// between Open and Close — a flag, not a counter, because Close is
// idempotent (HashJoin closes its build side after the build and again in
// its own Close). fail makes NextVec return an error.
type checked struct {
	exec.Operator
	t          *testing.T
	name       string
	open, fail bool
}

func (c *checked) Unwrap() exec.Operator { return c.Operator }

func (c *checked) Open(ctx *exec.EvalContext) error {
	c.open = true
	return c.Operator.Open(ctx)
}

func (c *checked) Close() error {
	c.open = false
	return c.Operator.Close()
}

func (c *checked) NextVec() (*sqltypes.ColBatch, bool, error) {
	if c.fail {
		return nil, false, fmt.Errorf("%s: injected failure", c.name)
	}
	cb, ok, err := c.Operator.NextVec()
	if err != nil || !ok {
		return cb, ok, err
	}
	if cb.NumActive() == 0 {
		c.t.Errorf("%s: empty batch returned with ok=true", c.name)
	}
	for i, s := range cb.Sel {
		if int(s) >= cb.Len() || s < 0 || (i > 0 && cb.Sel[i-1] >= s) {
			c.t.Errorf("%s: selection %v not ascending within %d rows", c.name, cb.Sel, cb.Len())
			break
		}
	}
	return cb, ok, err
}

// againstReference runs build's tree at every batch size (or the given
// ones) and compares the result with the reference evaluator's.
func againstReference(t *testing.T, name string, build func() exec.Operator, ordered bool, sizes ...int) {
	t.Helper()
	ctx := &exec.EvalContext{Now: exec.TestNow}
	want, err := reference(build(), ctx)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if len(sizes) == 0 {
		sizes = diffSizes
	}
	for _, bs := range sizes {
		got, err := exec.Run(build(), &exec.EvalContext{Now: exec.TestNow, BatchSize: bs}, 0)
		if err != nil {
			t.Fatalf("%s bs=%d: %v", name, bs, err)
		}
		exec.AssertSameRows(t, fmt.Sprintf("%s bs=%d", name, bs), got.Rows, want, ordered)
	}
}

// TestBatchRowEquivalence runs every operator shape through the batch
// executor at several batch sizes and through the row-at-a-time reference
// evaluator, and requires identical results.
func TestBatchRowEquivalence(t *testing.T) {
	tbl := exec.TestTable(t)
	s := exec.TestSchema("t")
	join := func(kind exec.JoinKind) func() exec.Operator {
		return func() exec.Operator {
			left := exec.NewValues(exec.TestSchema("L"), exec.TestRows(50))
			right := exec.NewValues(exec.TestSchema("R"), exec.TestRows(20))
			return exec.NewHashJoin(left, right, []int{0}, []int{0}, nil, kind)
		}
	}
	trees := []struct {
		name    string
		ordered bool
		build   func() exec.Operator
	}{
		{"values", true, func() exec.Operator { return exec.NewValues(s, exec.TestRows(10)) }},
		{"scan", true, func() exec.Operator { return exec.NewScan(tbl, s) }},
		{"scan-filtered", true, func() exec.Operator {
			sc := exec.NewScan(tbl, s)
			sc.Filter = exec.TestPred(t, "name = '0'", s)
			return sc
		}},
		{"filter", true, func() exec.Operator {
			return &exec.Filter{Child: exec.NewValues(s, exec.TestRows(50)), Pred: exec.TestPred(t, "id > 10", s)}
		}},
		{"filter-empty", true, func() exec.Operator {
			return &exec.Filter{Child: exec.NewValues(s, exec.TestRows(50)), Pred: exec.TestPred(t, "id > 999", s)}
		}},
		{"project", true, func() exec.Operator {
			return &exec.Project{
				Child: exec.NewValues(s, exec.TestRows(10)),
				Exprs: []exec.Expr{exec.TestCompileItem(t, "id * 2", s)},
				Out:   exec.NewSchema(exec.Col{Name: "d", Kind: sqltypes.KindInt}),
			}
		}},
		{"hashjoin-inner", true, join(exec.JoinInner)},
		{"hashjoin-semi", true, join(exec.JoinSemi)},
		{"hashjoin-anti", true, join(exec.JoinAnti)},
		{"mergejoin", true, func() exec.Operator {
			l := exec.NewValues(exec.TestSchema("L"), exec.TestRows(30))
			r := exec.NewValues(exec.TestSchema("R"), exec.TestRows(12))
			return exec.NewMergeJoin(l, r, []int{0}, []int{0}, nil, exec.JoinInner)
		}},
		{"sort-limit", true, func() exec.Operator {
			sorted := &exec.Sort{
				Child: exec.NewValues(s, exec.TestRows(20)),
				Keys:  []exec.Expr{exec.TestCompileItem(t, "bal", s)},
				Desc:  []bool{true},
			}
			return &exec.Limit{Child: sorted, N: 5}
		}},
		{"sort-remote-topn", true, func() exec.Operator {
			rows := exec.TestRows(40)
			sorted := &exec.Sort{
				Child: &exec.Remote{Out: s, Fetch: func(*exec.EvalContext) ([]sqltypes.Row, error) { return rows, nil }},
				Keys:  []exec.Expr{exec.TestCompileItem(t, "0 - bal", s)},
				Desc:  []bool{false},
				TopN:  9,
			}
			return &exec.Limit{Child: sorted, N: 9}
		}},
		{"sort-scan", true, func() exec.Operator {
			sc := exec.NewScan(tbl, s)
			sc.Filter = exec.TestPred(t, "name <> '1'", s)
			return &exec.Sort{Child: sc, Keys: []exec.Expr{{Col: 1}, exec.TestCompileItem(t, "0 - id", s)}, Desc: []bool{false, false}}
		}},
		{"limit", true, func() exec.Operator {
			return &exec.Limit{Child: exec.NewValues(s, exec.TestRows(20)), N: 7}
		}},
		{"aggregate", false, func() exec.Operator {
			return &exec.Aggregate{
				Child:     exec.NewValues(s, exec.TestRows(30)),
				GroupCols: []int{1},
				Aggs:      []exec.AggSpec{{Func: "COUNT", Star: true}},
				Out: exec.NewSchema(
					exec.Col{Name: "name", Kind: sqltypes.KindString},
					exec.Col{Name: "cnt", Kind: sqltypes.KindInt},
				),
			}
		}},
		{"switchunion", true, func() exec.Operator {
			return &exec.SwitchUnion{
				Children: []exec.Operator{exec.NewValues(s, exec.TestRows(3)), exec.NewValues(s, exec.TestRows(8))},
				Selector: func(*exec.EvalContext) (int, time.Time) { return 1, time.Time{} },
			}
		}},
	}
	for _, tc := range trees {
		againstReference(t, tc.name, tc.build, tc.ordered, 1, 3, exec.DefaultBatchSize)
	}
}

// TestFilterAndKernelEmptyFirstBatch drives the AND-kernel regression (an
// empty first conjunct misread as "all rows") end to end through Filter:
// the first batches contain no row matching the first conjunct, and the
// filter starts with a nil selection buffer.
func TestFilterAndKernelEmptyFirstBatch(t *testing.T) {
	tbl := exec.TestTable(t) // ids 1..100
	s := exec.TestSchema("t")
	build := func() exec.Operator {
		return &exec.Filter{Child: exec.NewScan(tbl, s), Pred: exec.TestPred(t, "id > 90 AND bal < 95", s)}
	}
	if want, err := reference(build(), &exec.EvalContext{Now: exec.TestNow}); err != nil || len(want) != 4 {
		t.Fatalf("reference = %d rows (err %v), want ids 91..94", len(want), err)
	}
	// Small batches so early batches are rejected wholesale by "id > 90".
	againstReference(t, "and-kernel empty first batch", build, true, 8)
}

// TestScanKernelMatchesRowFilter runs the same pushed-down predicate through
// both of its batch forms, the typed kernel and the row predicate lifted; the
// reference evaluates the row predicate.
func TestScanKernelMatchesRowFilter(t *testing.T) {
	tbl := exec.TestTable(t)
	s := exec.TestSchema("t")
	for form, compile := range map[string]func(*testing.T, string, *exec.Schema) *exec.Pred{"kernel": exec.TestPred, "lifted": exec.TestLifted} {
		againstReference(t, form, func() exec.Operator {
			sc := exec.NewScan(tbl, s)
			sc.Filter = compile(t, "id > 20 AND name = '1'", s)
			return sc
		}, true, 1, 7, exec.DefaultBatchSize)
	}
}

// TestFilterKernelOverScan stacks a Filter (kernel) on a filtered Scan so the
// Filter refines an incoming selection vector rather than starting fresh.
func TestFilterKernelOverScan(t *testing.T) {
	tbl := exec.TestTable(t)
	s := exec.TestSchema("t")
	againstReference(t, "filter-over-scan", func() exec.Operator {
		sc := exec.NewScan(tbl, s)
		sc.Filter = exec.TestLifted(t, "id > 10", s)
		return &exec.Filter{Child: sc, Pred: exec.TestPred(t, "bal < 50", s)}
	}, true, 16)
}

// TestProjectColumnGather checks the column outputs, which forward the
// input's vectors, against the same columns computed by closures, over
// row-backed input (Values), over views of lanes (a sort's output) and over
// purely columnar input (an inner hash join's output).
func TestProjectColumnGather(t *testing.T) {
	s := exec.TestSchema("t")
	out := exec.NewSchema(
		exec.Col{Name: "bal", Kind: sqltypes.KindFloat},
		exec.Col{Name: "id", Kind: sqltypes.KindInt},
	)
	read := func(ord int) exec.Expr {
		return exec.Expr{Fn: func(_ *exec.EvalContext, r sqltypes.Row) (sqltypes.Value, error) { return r[ord], nil }}
	}
	computed := []exec.Expr{read(2), read(0)}
	gather := []exec.Expr{{Col: 2}, {Col: 0}}
	values := func() exec.Operator { return exec.NewValues(s, exec.TestRows(25)) }
	joined := func() exec.Operator {
		l, r := exec.NewValues(s, exec.TestRows(25)), exec.NewValues(exec.TestSchema("R"), exec.TestRows(25))
		return exec.NewHashJoin(l, r, []int{0}, []int{0}, nil, exec.JoinInner)
	}
	sorted := func() exec.Operator {
		return &exec.Sort{Child: values(), Keys: []exec.Expr{{Col: 0}}, Desc: []bool{false}}
	}
	for name, child := range map[string]func() exec.Operator{"row-backed": values, "lanes": sorted, "columnar": joined} {
		want, err := exec.Run(&exec.Project{Child: child(), Exprs: computed, Out: out}, &exec.EvalContext{Now: exec.TestNow}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Run(&exec.Project{Child: child(), Exprs: gather, Out: out}, &exec.EvalContext{Now: exec.TestNow, BatchSize: 4}, 0)
		if err != nil {
			t.Fatal(err)
		}
		exec.AssertSameRows(t, "project-gather "+name, got.Rows, want.Rows, true)
		againstReference(t, "project-gather "+name, func() exec.Operator {
			return &exec.Project{Child: child(), Exprs: gather, Out: out}
		}, true)
	}
}

// zeroTable is t(id, name, x), indexed on x, with ids 1..n and x = id mod 4:
// every fourth row has x = 0.
func zeroTable(t *testing.T, n int) (*storage.Table, *exec.Schema) {
	t.Helper()
	c := catalog.New()
	def := &catalog.Table{
		Name:       "t",
		Columns:    []catalog.Column{{Name: "id", Type: sqltypes.KindInt, NotNull: true}, {Name: "name", Type: sqltypes.KindString}, {Name: "x", Type: sqltypes.KindInt}},
		PrimaryKey: []string{"id"},
	}
	if err := c.AddTable(def); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&catalog.Index{Name: "ix_x", Table: "t", Columns: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(c.Table("t"))
	for i := 1; i <= n; i++ {
		if err := tbl.Replace(nil, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprint(i % 3)), sqltypes.NewInt(int64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, exec.NewSchema(
		exec.Col{Binding: "t", Name: "id", Kind: sqltypes.KindInt},
		exec.Col{Binding: "t", Name: "name", Kind: sqltypes.KindString},
		exec.Col{Binding: "t", Name: "x", Kind: sqltypes.KindInt})
}

// TestComputedOutputsSkipDroppedRows: a computed expression runs only at the
// rows the selection kept, so 10 / x under WHERE x <> 0 never divides by zero.
// The quotient is a Project output alone, a Project output between two
// columns (which must stay aligned with the rows it was computed at), and a
// SUM argument. The predicate is the typed kernel or the row predicate
// lifted; it narrows a clustered scan (which emits only survivors), a
// secondary-index scan and a Filter over a scan or over rows (which emit the
// batch under a narrowed selection).
func TestComputedOutputsSkipDroppedRows(t *testing.T) {
	tbl, s := zeroTable(t, 600)
	quot := exec.TestCompileItem(t, "10 / x", s)
	outputs := map[string]func(exec.Operator) exec.Operator{
		"project": func(in exec.Operator) exec.Operator {
			return &exec.Project{Child: in, Exprs: []exec.Expr{quot}, Out: exec.NewSchema(exec.Col{Name: "q"})}
		},
		"mixed project": func(in exec.Operator) exec.Operator {
			return &exec.Project{Child: in, Exprs: []exec.Expr{{Col: 2}, quot, {Col: 0}},
				Out: exec.NewSchema(exec.Col{Name: "x"}, exec.Col{Name: "q"}, exec.Col{Name: "id"})}
		},
		"sum": func(in exec.Operator) exec.Operator {
			return &exec.Aggregate{Child: in, GroupCols: []int{1}, Aggs: []exec.AggSpec{{Func: "SUM", Arg: quot}},
				Out: exec.NewSchema(exec.Col{Name: "name"}, exec.Col{Name: "s"})}
		},
	}
	for form, compile := range map[string]func(*testing.T, string, *exec.Schema) *exec.Pred{"kernel": exec.TestPred, "lifted": exec.TestLifted} {
		nonzero := compile(t, "x <> 0", s)
		sources := map[string]func() exec.Operator{
			"scan": func() exec.Operator {
				sc := exec.NewScan(tbl, s)
				sc.Filter = nonzero
				return sc
			},
			"index scan": func() exec.Operator {
				sc := exec.NewScan(tbl, s)
				sc.Index, sc.Filter = "ix_x", nonzero
				return sc
			},
			"filter over scan": func() exec.Operator { return &exec.Filter{Child: exec.NewScan(tbl, s), Pred: nonzero} },
			"filter over rows": func() exec.Operator {
				rows, err := reference(exec.NewScan(tbl, s), nil)
				if err != nil {
					t.Fatal(err)
				}
				return &exec.Filter{Child: exec.NewValues(s, rows), Pred: nonzero}
			},
		}
		for src, source := range sources {
			for out, output := range outputs {
				againstReference(t, fmt.Sprintf("%s %s %s", out, form, src), func() exec.Operator { return output(source()) },
					out != "sum", 1, 7, exec.DefaultBatchSize)
			}
		}
	}
}

// TestMergeJoinGroupsAcrossBatches runs merge joins whose right-hand groups
// of equal keys straddle batch boundaries and arrive under a narrowed
// selection (a Filter over the right input), with a NULL key first on both
// sides, for every join kind with and without a residual, against the
// reference at batch sizes that cut the groups anywhere. The right input is
// row-backed (Values) or views of lanes (a sort on bal, which keeps the key
// order).
func TestMergeJoinGroupsAcrossBatches(t *testing.T) {
	ls, rs := exec.TestSchema("L"), exec.TestSchema("R")
	rows := func(n, dup int) []sqltypes.Row {
		out := []sqltypes.Row{{sqltypes.Null, sqltypes.NewString("2"), sqltypes.NewFloat(-1)}}
		for k := range n {
			out = append(out, sqltypes.Row{sqltypes.NewInt(int64(k / dup)), sqltypes.NewString(fmt.Sprint(k % 3)), sqltypes.NewFloat(float64(k))})
		}
		return out
	}
	for _, lanes := range []bool{false, true} {
		for _, kind := range []exec.JoinKind{exec.JoinInner, exec.JoinSemi, exec.JoinAnti} {
			for _, residual := range []string{"", "L.name <> R.name"} {
				againstReference(t, fmt.Sprintf("lanes %v kind %d residual %q", lanes, kind, residual), func() exec.Operator {
					var in exec.Operator = exec.NewValues(rs, rows(90, 4))
					if lanes {
						in = &exec.Sort{Child: in, Keys: []exec.Expr{{Col: 2}}, Desc: []bool{false}}
					}
					right := &exec.Filter{Child: in, Pred: exec.TestPred(t, "bal <> 5", rs)}
					mj := exec.NewMergeJoin(exec.NewValues(ls, rows(60, 3)), right, []int{0}, []int{0}, nil, kind)
					if residual != "" {
						mj.Residual = exec.TestCompile(t, residual, exec.Concat(ls, rs))
					}
					return mj
				}, true, 1, 2, 7, exec.DefaultBatchSize)
			}
		}
	}
}

// TestHashJoinLargeBuild pushes the open-addressed table through several
// growth doublings and checks inner/semi/anti against the nested-loop
// reference.
func TestHashJoinLargeBuild(t *testing.T) {
	ls, rs := exec.TestSchema("L"), exec.TestSchema("R")
	for _, kind := range []exec.JoinKind{exec.JoinInner, exec.JoinSemi, exec.JoinAnti} {
		againstReference(t, fmt.Sprintf("large-build kind=%d", kind), func() exec.Operator {
			return exec.NewHashJoin(
				exec.NewValues(ls, exec.TestRows(2000)),
				exec.NewValues(rs, exec.TestRows(700)), []int{0}, []int{0}, nil, kind)
		}, true, exec.DefaultBatchSize)
	}
}

// TestHashJoinBuildPayloadGather pushes NULLs and a mixed-kind payload
// column through the build side of an inner join: the vector-to-vector
// build gather must reproduce the reference exactly across the typed,
// null-tracked, and Any vector representations.
func TestHashJoinBuildPayloadGather(t *testing.T) {
	ls, rs := exec.TestSchema("L"), exec.TestSchema("R")
	var lrows, rrows []sqltypes.Row
	for i := 0; i < 50; i++ {
		lrows = append(lrows, sqltypes.Row{sqltypes.NewInt(int64(i % 10)), sqltypes.NewString("l"), sqltypes.NewFloat(float64(i))})
	}
	for i := 0; i < 10; i++ {
		name := sqltypes.NewString("r")
		bal := sqltypes.NewFloat(float64(i))
		switch i % 3 {
		case 0:
			name = sqltypes.Null // NULL in a string payload column
		case 1:
			name = sqltypes.NewInt(int64(i)) // mixed kinds force the Any representation
		}
		if i%4 == 0 {
			bal = sqltypes.Null // NULL in a float payload column
		}
		rrows = append(rrows, sqltypes.Row{sqltypes.NewInt(int64(i)), name, bal})
	}
	againstReference(t, "build-payload gather", func() exec.Operator {
		return exec.NewHashJoin(exec.NewValues(ls, lrows), exec.NewValues(rs, rrows), []int{0}, []int{0}, nil, exec.JoinInner)
	}, true)
}

// TestParallelScanMatchesReference compares a bounded, filtered morsel scan
// — inline and with real workers — with the reference's single-morsel walk.
func TestParallelScanMatchesReference(t *testing.T) {
	tbl := exec.TestBigTable(t, 6000)
	s := exec.TestSchema("t")
	for _, dop := range []int{1, 4} {
		againstReference(t, fmt.Sprintf("dop=%d", dop), func() exec.Operator {
			ps := exec.NewParallelScan(tbl, s)
			ps.DOP = dop
			ps.Lo = storage.Bound{Vals: sqltypes.Row{sqltypes.NewInt(500)}, Inclusive: true}
			ps.Hi = storage.Bound{Vals: sqltypes.Row{sqltypes.NewInt(5500)}}
			ps.Filter = exec.TestPred(t, "name = '1' AND bal < 5000", s)
			return ps
		}, false, 1, 64, exec.DefaultBatchSize)
	}
}

// ---- randomized operator trees ----

// treeGen draws operator trees over the fixture schema t(id, name, bal).
// Every operator it places keeps that schema (joins are semi/anti, or inner
// under a gather back to the left side) so any operator can stack on any
// other, and every edge carries a checked shim.
type treeGen struct {
	t   *testing.T
	rng *rand.Rand
	// branch is read by every SwitchUnion selector, so one tree can be
	// re-opened on its other branch.
	branch *int
	// shims is every edge of the tree, leaves its sources.
	shims, leaves []*checked
}

// keyRows builds rows whose id column mixes duplicates, NULL and NaN.
func (g *treeGen) keyRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		id := sqltypes.NewInt(int64(g.rng.Intn(12)))
		switch g.rng.Intn(8) {
		case 0:
			id = sqltypes.Null
		case 1:
			id = sqltypes.NewFloat(math.NaN())
		case 2:
			id = sqltypes.NewFloat(float64(g.rng.Intn(12))) // joins the equal INT
		}
		rows[i] = sqltypes.Row{id, sqltypes.NewString(fmt.Sprint(i % 3)), sqltypes.NewFloat(float64(i))}
	}
	return rows
}

func (g *treeGen) wrap(name string, op exec.Operator) *checked {
	c := &checked{Operator: op, t: g.t, name: name}
	g.shims = append(g.shims, c)
	return c
}

func (g *treeGen) source() exec.Operator {
	s := exec.TestSchema("t")
	var leaf *checked
	switch g.rng.Intn(4) {
	case 0:
		leaf = g.wrap("values-empty", exec.NewValues(s, nil))
	case 1:
		sc := exec.NewScan(exec.TestTable(g.t), s)
		if g.rng.Intn(2) == 0 {
			sc.Index, sc.Filter = "ix_bal", exec.TestLifted(g.t, "id > 40", s)
		}
		leaf = g.wrap("scan", sc)
	default:
		leaf = g.wrap("values", exec.NewValues(s, g.keyRows(g.rng.Intn(40))))
	}
	g.leaves = append(g.leaves, leaf)
	return leaf
}

// assertClosed fails on the first edge that was opened and not closed again.
func (g *treeGen) assertClosed(what string) {
	for _, c := range g.shims {
		if c.open {
			g.t.Fatalf("%s: %s left open", what, c.name)
		}
	}
}

// predicates select nothing, everything, only the first or last fixture
// row, or a middling share; bal never holds NULL or NaN, so kernel and row
// predicate agree by construction and the test isolates selection handling.
var predicates = []string{"bal < 0", "bal >= 0", "bal = 0", "bal = 39", "bal > 10 AND bal < 30", "name = '1'"}

func (g *treeGen) tree(depth int) exec.Operator {
	if depth == 0 {
		return g.source()
	}
	s := exec.TestSchema("t")
	child := g.tree(depth - 1)
	idKey := []int{0}
	switch g.rng.Intn(9) {
	case 0:
		p := predicates[g.rng.Intn(len(predicates))]
		f := &exec.Filter{Child: child, Pred: exec.TestLifted(g.t, p, s)}
		if g.rng.Intn(2) == 0 {
			f.Pred = exec.TestPred(g.t, p, s)
		}
		return g.wrap("filter "+p, f)
	case 1:
		return g.wrap("limit", &exec.Limit{Child: child, N: int64(g.rng.Intn(30))})
	case 2:
		return g.wrap("distinct", &exec.Distinct{Child: child})
	case 3:
		return g.wrap("sort", &exec.Sort{Child: child, Keys: []exec.Expr{exec.TestCompileItem(g.t, "bal", s)}, Desc: []bool{g.rng.Intn(2) == 0}})
	case 4:
		other := g.tree(depth - 1)
		kind := []exec.JoinKind{exec.JoinSemi, exec.JoinAnti}[g.rng.Intn(2)]
		var residual exec.Compiled
		if g.rng.Intn(2) == 0 {
			residual = exec.TestCompile(g.t, "L.bal >= R.bal", exec.Concat(exec.TestSchema("L"), exec.TestSchema("R")))
		}
		return g.wrap("hashjoin-semi/anti", exec.NewHashJoin(child, other, idKey, idKey, residual, kind))
	case 5:
		// Inner join (columnar output), gathered back to the left columns.
		other := g.tree(depth - 1)
		hj := exec.NewHashJoin(child, other, idKey, idKey, nil, exec.JoinInner)
		return g.wrap("hashjoin-inner", &exec.Project{Child: g.wrap("hj", hj), Exprs: []exec.Expr{{Col: 0}, {Col: 1}, {Col: 2}}, Out: s})
	case 6:
		nlj := exec.NewIndexLoopJoin(child, exec.TestTable(g.t), "ix_bal", s, []int{2}, nil, exec.JoinInner)
		return g.wrap("nlj", &exec.Project{Child: g.wrap("nlj-raw", nlj), Exprs: []exec.Expr{{Col: 3}, {Col: 1}, {Col: 2}}, Out: s})
	case 7:
		// Columns beside a computed output, in the schema's shape.
		return g.wrap("project", &exec.Project{Child: child, Out: s, Exprs: []exec.Expr{
			exec.TestCompileItem(g.t, "id", s), exec.TestCompileItem(g.t, "name", s), exec.TestCompileItem(g.t, "bal + 1", s)}})
	default:
		other := g.tree(depth - 1)
		return g.wrap("switchunion", &exec.SwitchUnion{
			Children: []exec.Operator{child, other},
			Selector: func(*exec.EvalContext) (int, time.Time) { return *g.branch, time.Time{} },
		})
	}
}

// TestRandomTreesMatchReference builds seeded random operator trees — filters
// that select nothing, everything, or only the first or last row; NULL and
// NaN join keys; empty build and probe sides; limits that cut mid-batch;
// guards — and runs each at every batch size, then re-opens the same tree
// with every SwitchUnion flipped to its other branch. Results must equal the
// reference evaluator's: an empty selection that surfaced as nil ("all
// rows") anywhere would add rows. After every run, and after a run in which
// one leaf fails, every edge that was opened must be closed.
func TestRandomTreesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		branch := 0
		g := &treeGen{t: t, rng: rand.New(rand.NewSource(seed)), branch: &branch}
		root := g.wrap("root", &exec.Aggregate{ // groups fold the row order joins leave unspecified
			Child:     g.tree(3),
			GroupCols: []int{1},
			Aggs:      []exec.AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: exec.TestCompileItem(t, "bal", exec.TestSchema("t"))}},
			Out:       exec.NewSchema(exec.Col{Name: "name"}, exec.Col{Name: "n"}, exec.Col{Name: "s"}),
		})
		for _, bs := range diffSizes {
			for branch = 0; branch < 2; branch++ {
				ctx := &exec.EvalContext{Now: exec.TestNow, BatchSize: bs}
				want, err := reference(root, ctx)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}
				got, err := exec.Run(root, ctx, 0)
				if err != nil {
					t.Fatalf("seed %d bs=%d branch=%d: %v", seed, bs, branch, err)
				}
				g.assertClosed(fmt.Sprintf("seed %d bs=%d branch=%d", seed, bs, branch))
				if g, w := renderMultiset(got.Rows), renderMultiset(want); !slices.Equal(g, w) {
					t.Fatalf("seed %d bs=%d branch=%d:\n got %v\nwant %v", seed, bs, branch, g, w)
				}
			}
		}
		for _, leaf := range g.leaves {
			leaf.fail = true
			for branch = 0; branch < 2; branch++ {
				exec.Run(root, &exec.EvalContext{Now: exec.TestNow}, 0) // may or may not reach the leaf
				g.assertClosed(fmt.Sprintf("seed %d branch=%d, %s failing", seed, branch, leaf.name))
			}
			leaf.fail = false
		}
	}
}

// ---- whole statements ----

// TestStatementsMatchReference plans every plan-choice and guard-overhead
// statement and the seven benchmark templates, at the cache and at the back
// end, and compares the executor with the reference evaluator on fresh
// trees of the same plan at every batch size.
func TestStatementsMatchReference(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.005, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const hour = "CURRENCY 3600 ON "
	stmts := map[string]string{
		"point":       tpcd.PointQuery(17, "CURRENCY 60 ON (Customer)"),
		"join":        tpcd.CustomerOrdersQuery(17, "CURRENCY 120000 MS ON (C), 120000 MS ON (O)"),
		"scan_cust":   tpcd.RangeQuery(0, 1000, hour+"(Customer)"),
		"join_local":  tpcd.JoinQuery("C.c_acctbal >= 9000", hour+"(C), 3600 ON (O)"),
		"scan_orders": "SELECT o_custkey, o_orderkey, o_totalprice FROM Orders WHERE o_totalprice > 490000 " + hour + "(Orders)",
		"agg_nation":  "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM Customer GROUP BY c_nationkey " + hour + "(Customer)",
		"agg_top":     "SELECT TOP 10 o_custkey, SUM(o_totalprice) AS total FROM Orders WHERE o_custkey <= 75 GROUP BY o_custkey ORDER BY total DESC " + hour + "(Orders)",
	}
	for _, c := range harness.PlanChoiceCases() {
		stmts["planchoice-"+c.Name] = c.SQL
	}
	for _, q := range harness.GuardQueries() {
		stmts["guard-"+q.Name+"-plain"], stmts["guard-"+q.Name+"-fresh"], stmts["guard-"+q.Name+"-stale"] = q.Plain, q.Fresh, q.Stale
	}
	for name, sql := range stmts {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cachePlan, _, err := sys.Cache.Plan(sel, opt.Options{})
		if err != nil {
			t.Fatalf("%s: cache plan: %v", name, err)
		}
		backPlan, err := sys.Backend.Plan(sel)
		if err != nil {
			t.Fatalf("%s: back-end plan: %v", name, err)
		}
		for site, plan := range map[string]*opt.Plan{"cache": cachePlan, "backend": backPlan} {
			now := sys.Clock.Now()
			tree, err := plan.Build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := reference(tree, &exec.EvalContext{Now: now})
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", name, site, err)
			}
			want := renderMultiset(ref)
			for _, bs := range diffSizes {
				if tree, err = plan.Build(); err != nil {
					t.Fatal(err)
				}
				got, err := exec.Run(tree, &exec.EvalContext{Now: now, BatchSize: bs}, 0)
				if err != nil {
					t.Fatalf("%s/%s bs=%d: %v", name, site, bs, err)
				}
				if g := renderMultiset(got.Rows); !slices.Equal(g, want) {
					t.Fatalf("%s/%s bs=%d (%s): executor returned %d rows, reference %d", name, site, bs, plan.Shape, len(g), len(want))
				}
			}
		}
	}
}
