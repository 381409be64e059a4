package opt

import (
	"strings"
	"testing"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/vclock"
)

// parallelFixture: a back-end site with one wide clustered table, large
// enough that a full scan's work dwarfs the parallel startup cost.
func parallelFixture(t *testing.T) *Planner {
	t.Helper()
	cat := catalog.New()
	cust := &catalog.Table{
		Name: "Customer",
		Columns: []catalog.Column{
			{Name: "c_custkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "c_name", Type: sqltypes.KindString},
			{Name: "c_acctbal", Type: sqltypes.KindFloat},
		},
		PrimaryKey: []string{"c_custkey"},
	}
	if err := cat.AddTable(cust); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(cat.Table("Customer"))
	for i := int64(1); i <= 12000; i++ {
		tbl.Replace(nil, sqltypes.Row{
			sqltypes.NewInt(i),
			sqltypes.NewString("c"),
			sqltypes.NewFloat(float64(i % 100)),
		})
	}
	def := cat.Table("Customer")
	stats := tbl.Analyze()
	def.Stats.Set(stats.RowCount, stats.AvgRowBytes, stats.Columns)
	return NewPlanner(&Site{
		Cat:        cat,
		LocalTable: func(n string) *storage.Table { return tbl },
		LocalView:  func(string) *storage.Table { return nil },
		Clock:      vclock.NewVirtual(),
	})
}

// TestWideScanGoesParallel: with DOP available, an analytic full scan picks
// the morsel-parallel access path and the plan reports its DOP.
func TestWideScanGoesParallel(t *testing.T) {
	p := parallelFixture(t)
	p.Opts.MaxDOP = 4
	plan, rows := planAndRun(t, p, "SELECT c_custkey, c_name FROM Customer")
	if !strings.Contains(plan.Shape, "ParScan(Customer)") {
		t.Fatalf("expected parallel scan, got %s", plan.Shape)
	}
	if plan.DOP != 4 {
		t.Fatalf("plan DOP = %d, want 4", plan.DOP)
	}
	if rows != 12000 {
		t.Fatalf("rows = %d", rows)
	}
}

// TestPointQueryStaysSerial: the startup cost keeps point lookups on the
// serial seek plan even when parallelism is available.
func TestPointQueryStaysSerial(t *testing.T) {
	p := parallelFixture(t)
	p.Opts.MaxDOP = 4
	plan, rows := planAndRun(t, p, "SELECT c_name FROM Customer WHERE c_custkey = 7")
	if strings.Contains(plan.Shape, "ParScan") {
		t.Fatalf("point query went parallel: %s", plan.Shape)
	}
	if plan.DOP != 1 {
		t.Fatalf("plan DOP = %d, want 1", plan.DOP)
	}
	if rows != 1 {
		t.Fatalf("rows = %d", rows)
	}
}

// TestMaxDOPOneDisablesParallel: a single worker can never beat the serial
// scan, so MaxDOP=1 is an effective off switch.
func TestMaxDOPOneDisablesParallel(t *testing.T) {
	p := parallelFixture(t)
	p.Opts.MaxDOP = 1
	plan, _ := planAndRun(t, p, "SELECT c_custkey, c_name FROM Customer")
	if strings.Contains(plan.Shape, "ParScan") || plan.DOP != 1 {
		t.Fatalf("MaxDOP=1 produced a parallel plan: %s (DOP %d)", plan.Shape, plan.DOP)
	}
}

// TestOrderedPlanFallsBackToSerialScans: merge joins need their inputs in
// clustered order, which a morsel-parallel scan cannot deliver. With
// parallelism available the co-clustered join must still choose the merge
// join over a hash join fed by parallel scans — the interesting-orders case.
func TestOrderedPlanFallsBackToSerialScans(t *testing.T) {
	p := mergeFixture(t)
	p.Opts.MaxDOP = 4
	plan, rows := planAndRun(t, p,
		"SELECT C.c_custkey, O.o_totalprice FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey")
	if !strings.Contains(plan.Shape, "MergeJoin") {
		t.Fatalf("expected merge join, got %s", plan.Shape)
	}
	if strings.Contains(plan.Shape, "ParScan") {
		t.Fatalf("merge join fed by an unordered parallel scan: %s", plan.Shape)
	}
	if plan.DOP != 1 {
		t.Fatalf("plan DOP = %d, want 1", plan.DOP)
	}
	if rows != 5000 {
		t.Fatalf("rows = %d", rows)
	}
}
