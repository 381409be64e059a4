package opt

import (
	"strings"
	"testing"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/vclock"
)

// mergeFixture: Customer clustered on c_custkey, Orders clustered on
// (o_custkey, o_orderkey) — both ordered by the join column, the paper's
// TPC-D layout — so the back end should pick a merge join for the full
// join.
func mergeFixture(t *testing.T) *Planner {
	t.Helper()
	cat := catalog.New()
	cust := &catalog.Table{
		Name: "Customer",
		Columns: []catalog.Column{
			{Name: "c_custkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "c_name", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"c_custkey"},
	}
	orders := &catalog.Table{
		Name: "Orders",
		Columns: []catalog.Column{
			{Name: "o_custkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "o_orderkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "o_totalprice", Type: sqltypes.KindFloat},
		},
		PrimaryKey: []string{"o_custkey", "o_orderkey"},
	}
	for _, def := range []*catalog.Table{cust, orders} {
		if err := cat.AddTable(def); err != nil {
			t.Fatal(err)
		}
	}
	tables := map[string]*storage.Table{
		"Customer": storage.NewTable(cust),
		"Orders":   storage.NewTable(orders),
	}
	for i := int64(1); i <= 500; i++ {
		tables["Customer"].Replace(nil, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewString("c")})
		for o := int64(0); o < 10; o++ {
			tables["Orders"].Replace(nil, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i*100 + o), sqltypes.NewFloat(1)})
		}
	}
	for name, tbl := range tables {
		def := cat.Table(name)
		stats := tbl.Analyze()
		def.Stats.Set(stats.RowCount, stats.AvgRowBytes, stats.Columns)
	}
	return NewPlanner(&Site{
		Cat:        cat,
		LocalTable: func(n string) *storage.Table { return tables[n] },
		LocalView:  func(string) *storage.Table { return nil },
		Clock:      vclock.NewVirtual(),
	})
}

func TestBackendPicksMergeJoinForClusteredJoin(t *testing.T) {
	p := mergeFixture(t)
	plan, rows := planAndRun(t, p,
		"SELECT C.c_custkey, O.o_totalprice FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey")
	if !strings.Contains(plan.Shape, "MergeJoin") {
		t.Fatalf("expected merge join for co-clustered tables, got %s", plan.Shape)
	}
	if rows != 5000 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestSelectiveJoinStillPrefersNLJOrSeek(t *testing.T) {
	p := mergeFixture(t)
	plan, rows := planAndRun(t, p,
		"SELECT O.o_totalprice FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey WHERE C.c_custkey = 7")
	// A point join must not pay two full ordered scans.
	if strings.Contains(plan.Shape, "MergeJoin") {
		t.Fatalf("merge join chosen for a point join: %s", plan.Shape)
	}
	if rows != 10 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestMergeJoinSemiAtBackend(t *testing.T) {
	p := mergeFixture(t)
	plan, rows := planAndRun(t, p,
		`SELECT C.c_custkey FROM Customer C
		 WHERE EXISTS (SELECT 1 FROM Orders O WHERE O.o_custkey = C.c_custkey AND O.o_totalprice > 0)`)
	if rows != 500 {
		t.Fatalf("rows = %d (plan %s)", rows, plan.Shape)
	}
}

func planAndRun(t *testing.T, p *Planner, sql string) (*Plan, int) {
	t.Helper()
	sel, err := parseSelectHelper(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := p.PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPlanHelper(plan)
	if err != nil {
		t.Fatal(err)
	}
	return plan, res
}

func parseSelectHelper(sql string) (*sqlparser.SelectStmt, error) {
	return sqlparser.ParseSelect(sql)
}

func runPlanHelper(plan *Plan) (int, error) {
	res, err := exec.Run(plan.Root, &exec.EvalContext{Now: vclock.Epoch}, 0)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}
