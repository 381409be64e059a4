package catalog

import (
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/sqltypes"
)

func customerDef() *Table {
	return &Table{
		Name: "Customer",
		Columns: []Column{
			{Name: "c_custkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "c_name", Type: sqltypes.KindString},
			{Name: "c_nationkey", Type: sqltypes.KindInt},
			{Name: "c_acctbal", Type: sqltypes.KindFloat},
		},
		PrimaryKey: []string{"c_custkey"},
	}
}

func TestAddTableImplicitClusteredIndex(t *testing.T) {
	c := New()
	if err := c.AddTable(customerDef()); err != nil {
		t.Fatal(err)
	}
	tbl := c.Table("Customer")
	if tbl == nil {
		t.Fatal("table not found")
	}
	if len(tbl.Indexes) != 1 || !tbl.Indexes[0].Clustered {
		t.Fatalf("expected implicit clustered index, got %+v", tbl.Indexes)
	}
	if tbl.Indexes[0].Columns[0] != "c_custkey" {
		t.Fatalf("clustered key = %v", tbl.Indexes[0].Columns)
	}
	if tbl.Stats == nil {
		t.Fatal("stats not initialized")
	}
}

func TestAddTableValidation(t *testing.T) {
	c := New()
	cases := []struct {
		name string
		tbl  *Table
		want string
	}{
		{"empty name", &Table{}, "empty name"},
		{"no columns", &Table{Name: "t"}, "no columns"},
		{"no pk", &Table{Name: "t", Columns: []Column{{Name: "a"}}}, "no primary key"},
		{"dup column", &Table{Name: "t", Columns: []Column{{Name: "a"}, {Name: "a"}}, PrimaryKey: []string{"a"}}, "duplicate column"},
		{"bad pk", &Table{Name: "t", Columns: []Column{{Name: "a"}}, PrimaryKey: []string{"b"}}, "not defined"},
	}
	for _, tc := range cases {
		err := c.AddTable(tc.tbl)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}
	if err := c.AddTable(customerDef()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(customerDef()); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestColumnLookup(t *testing.T) {
	tbl := customerDef()
	if tbl.ColumnIndex("c_name") != 1 {
		t.Error("ColumnIndex")
	}
	if tbl.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex missing")
	}
	if tbl.Column("c_acctbal") == nil || tbl.Column("nope") != nil {
		t.Error("Column")
	}
}

func TestAddIndexAndIndexOn(t *testing.T) {
	c := New()
	if err := c.AddTable(customerDef()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&Index{Name: "ix_acctbal", Table: "Customer", Columns: []string{"c_acctbal"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&Index{Name: "ix_acctbal", Table: "Customer", Columns: []string{"c_acctbal"}}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if err := c.AddIndex(&Index{Name: "ix_bad", Table: "Customer", Columns: []string{"nope"}}); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if err := c.AddIndex(&Index{Name: "ix", Table: "Nope", Columns: []string{"x"}}); err == nil {
		t.Fatal("index on missing table accepted")
	}
	tbl := c.Table("Customer")
	if idx := tbl.IndexOn("c_acctbal"); idx == nil || idx.Name != "ix_acctbal" {
		t.Fatalf("IndexOn(c_acctbal) = %v", idx)
	}
	if idx := tbl.IndexOn("c_custkey"); idx == nil || !idx.Clustered {
		t.Fatalf("IndexOn(pk) should find clustered index, got %v", idx)
	}
	if tbl.IndexOn("c_name") != nil {
		t.Fatal("IndexOn for unindexed column should be nil")
	}
}

func TestRegions(t *testing.T) {
	c := New()
	if err := c.AddRegion(&Region{ID: MasterRegionID}); err == nil {
		t.Fatal("master region id accepted")
	}
	r := &Region{ID: 1, Name: "CR1", UpdateInterval: 15 * time.Second, UpdateDelay: 5 * time.Second}
	if err := c.AddRegion(r); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRegion(&Region{ID: 1}); err == nil {
		t.Fatal("duplicate region accepted")
	}
	got := c.Region(1)
	if got.HeartbeatInterval != 2*time.Second {
		t.Fatalf("default heartbeat = %v", got.HeartbeatInterval)
	}
	if got.MinCurrency() != 5*time.Second {
		t.Fatalf("MinCurrency = %v", got.MinCurrency())
	}
	if got.MaxCurrency() != 20*time.Second {
		t.Fatalf("MaxCurrency = %v", got.MaxCurrency())
	}
	if len(c.Regions()) != 1 {
		t.Fatal("Regions()")
	}
}

func TestViews(t *testing.T) {
	c := New()
	if err := c.AddTable(customerDef()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRegion(&Region{ID: 1, Name: "CR1"}); err != nil {
		t.Fatal(err)
	}
	v := &View{
		Name:      "cust_prj",
		BaseTable: "Customer",
		Columns:   []string{"c_custkey", "c_name", "c_nationkey", "c_acctbal"},
		RegionID:  1,
	}
	if err := c.AddView(v); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(v); err == nil {
		t.Fatal("duplicate view accepted")
	}
	bad := []*View{
		{Name: "v1", BaseTable: "Nope", Columns: []string{"x"}, RegionID: 1},
		{Name: "v2", BaseTable: "Customer", Columns: []string{"nope"}, RegionID: 1},
		{Name: "v3", BaseTable: "Customer", Columns: []string{"c_name"}, RegionID: 1}, // misses PK
		{Name: "v4", BaseTable: "Customer", Columns: []string{"c_custkey"}, RegionID: 99},
		{Name: "v5", BaseTable: "Customer", Columns: []string{"c_custkey"}, RegionID: 1,
			Preds: []SimplePred{{Column: "nope", Op: OpGT, Value: sqltypes.NewInt(0)}}},
	}
	for _, b := range bad {
		if err := c.AddView(b); err == nil {
			t.Errorf("view %s accepted, want error", b.Name)
		}
	}
	if c.View("cust_prj") == nil {
		t.Fatal("View lookup")
	}
	if len(c.ViewsOf("Customer")) != 1 || len(c.ViewsOf("Orders")) != 0 {
		t.Fatal("ViewsOf")
	}
	if v.ColumnIndex("c_name") != 1 || v.ColumnIndex("zz") != -1 {
		t.Fatal("View.ColumnIndex")
	}
}

func TestCompareOpString(t *testing.T) {
	ops := map[CompareOp]string{OpEQ: "=", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v", op)
		}
	}
	p := SimplePred{Column: "c_acctbal", Op: OpGE, Value: sqltypes.NewFloat(100)}
	if p.String() != "c_acctbal >= 100" {
		t.Fatalf("pred string = %q", p.String())
	}
}

func TestClone(t *testing.T) {
	c := New()
	if err := c.AddTable(customerDef()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRegion(&Region{ID: 1, Name: "CR1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(&View{Name: "v", BaseTable: "Customer", Columns: []string{"c_custkey"}, RegionID: 1}); err != nil {
		t.Fatal(err)
	}
	c.Table("Customer").Stats.Set(150000, 80, map[string]*ColumnStats{
		"c_custkey": {NDV: 150000, Min: sqltypes.NewInt(1), Max: sqltypes.NewInt(150000)},
	})
	cl := c.Clone()
	if cl.Table("Customer") == c.Table("Customer") {
		t.Fatal("clone shares table pointers")
	}
	if cl.Table("Customer").Stats.Rows() != 150000 {
		t.Fatal("clone lost stats")
	}
	// Mutating the clone's stats must not affect the original.
	cl.Table("Customer").Stats.Set(5, 10, nil)
	if c.Table("Customer").Stats.Rows() != 150000 {
		t.Fatal("clone aliases stats")
	}
	if cl.View("v") == nil || cl.Region(1) == nil {
		t.Fatal("clone misses views/regions")
	}
}

func TestStatsSelectivity(t *testing.T) {
	s := NewTableStats()
	if s.Rows() != 1 {
		t.Fatal("empty stats Rows should be 1")
	}
	if got := s.SelectivityEq("x"); got != defaultEqSelectivity {
		t.Fatalf("default eq sel = %v", got)
	}
	if got := s.SelectivityRange("x", sqltypes.Null, sqltypes.Null); got != defaultRangeSelectivity {
		t.Fatalf("default range sel = %v", got)
	}
	s.Set(1000, 50, map[string]*ColumnStats{
		"a": {NDV: 100, Min: sqltypes.NewFloat(0), Max: sqltypes.NewFloat(100)},
	})
	if got := s.SelectivityEq("a"); got != 0.01 {
		t.Fatalf("eq sel = %v", got)
	}
	got := s.SelectivityRange("a", sqltypes.NewFloat(0), sqltypes.NewFloat(50))
	if got < 0.45 || got > 0.55 {
		t.Fatalf("range sel [0,50] = %v, want ~0.5", got)
	}
	if got := s.SelectivityRange("a", sqltypes.NewFloat(200), sqltypes.NewFloat(300)); got != 0 {
		t.Fatalf("out-of-range sel = %v", got)
	}
	if got := s.SelectivityRange("a", sqltypes.NewFloat(60), sqltypes.NewFloat(40)); got != 0 {
		t.Fatalf("inverted range sel = %v", got)
	}
	if got := s.SelectivityRange("a", sqltypes.Null, sqltypes.Null); got != 1 {
		t.Fatalf("unbounded range sel = %v", got)
	}
}

func TestAnalyze(t *testing.T) {
	tbl := customerDef()
	rows := sqltypes.Batch{
		{sqltypes.NewInt(1), sqltypes.NewString("ann"), sqltypes.NewInt(1), sqltypes.NewFloat(10)},
		{sqltypes.NewInt(2), sqltypes.NewString("bob"), sqltypes.NewInt(1), sqltypes.NewFloat(90)},
		{sqltypes.NewInt(3), sqltypes.Null, sqltypes.NewInt(2), sqltypes.NewFloat(50)},
	}
	stats := Analyze(tbl, func(visit func(*sqltypes.ColBatch)) {
		for _, r := range rows { // one window a row
			var b sqltypes.ColBatch
			b.ResetRows(sqltypes.Batch{r}, len(r))
			visit(&b)
		}
	})
	if stats.Rows() != 3 {
		t.Fatalf("rows = %d", stats.Rows())
	}
	cs := stats.Column("c_custkey")
	if cs.NDV != 3 || cs.Min.Int() != 1 || cs.Max.Int() != 3 {
		t.Fatalf("c_custkey stats = %+v", cs)
	}
	if stats.Column("c_name").NullCount != 1 {
		t.Fatal("null count")
	}
	if stats.Column("c_nationkey").NDV != 2 {
		t.Fatal("ndv")
	}
	if len(stats.Column("c_acctbal").Histogram) == 0 {
		t.Fatal("histogram missing")
	}
	// Histogram-based selectivity: acctbal in [0,50] covers 2 of 3 rows-ish.
	sel := stats.SelectivityRange("c_acctbal", sqltypes.NewFloat(0), sqltypes.NewFloat(55))
	if sel <= 0 || sel > 1 {
		t.Fatalf("sel = %v", sel)
	}
}
