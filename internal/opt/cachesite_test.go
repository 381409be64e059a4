package opt_test

import (
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/backend"
	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/vclock"
)

// cacheFixture wires a real back end + cache and returns the cache plus its
// clock. Exercising the planner through mtcache.Plan covers opt's
// cache-site code paths (view matching, guards, remote candidates).
func cacheFixture(t *testing.T) (*mtcache.Cache, *vclock.Virtual) {
	t.Helper()
	clock := vclock.NewVirtual()
	b := backend.New(clock)
	mustExec := func(sql string) {
		t.Helper()
		if _, err := b.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`CREATE TABLE Item (i_id BIGINT NOT NULL PRIMARY KEY, i_cat BIGINT NOT NULL, i_price DOUBLE NOT NULL)`)
	mustExec(`CREATE TABLE Stock (s_item BIGINT NOT NULL, s_loc BIGINT NOT NULL, s_qty BIGINT NOT NULL, PRIMARY KEY (s_item, s_loc))`)
	var items, stock []sqltypes.Row
	for i := int64(1); i <= 400; i++ {
		items = append(items, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i % 10), sqltypes.NewFloat(float64(i))})
		for l := int64(0); l < 4; l++ {
			stock = append(stock, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(l), sqltypes.NewInt(i + l)})
		}
	}
	if err := b.LoadRows("Item", items); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadRows("Stock", stock); err != nil {
		t.Fatal(err)
	}
	b.AnalyzeAll()
	c := mtcache.New(clock, b, clock.Advance)
	if _, err := c.AddRegion(&catalog.Region{
		ID: 1, Name: "R1", UpdateInterval: 10 * time.Second, UpdateDelay: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddRegion(&catalog.Region{
		ID: 2, Name: "R2", UpdateInterval: 10 * time.Second, UpdateDelay: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(&catalog.View{
		Name: "item_prj", BaseTable: "Item", Columns: []string{"i_id", "i_cat", "i_price"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// A selection view in another region: only category 3 items.
	if err := c.CreateView(&catalog.View{
		Name: "item_cat3", BaseTable: "Item", Columns: []string{"i_id", "i_cat", "i_price"},
		Preds:    []catalog.SimplePred{{Column: "i_cat", Op: catalog.OpEQ, Value: sqltypes.NewInt(3)}},
		RegionID: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(&catalog.View{
		Name: "stock_prj", BaseTable: "Stock", Columns: []string{"s_item", "s_loc", "s_qty"}, RegionID: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RefreshShadowStats(); err != nil {
		t.Fatal(err)
	}
	// Mark both regions synchronized "now".
	c.SetLastSync(1, clock.Now())
	c.SetLastSync(2, clock.Now())
	return c, clock
}

func plan(t *testing.T, c *mtcache.Cache, sql string, opts opt.Options) *opt.Plan {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := c.Plan(sel, opts)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

func runPlan(t *testing.T, c *mtcache.Cache, p *opt.Plan) []sqltypes.Row {
	t.Helper()
	res, err := exec.Run(p.Root, &exec.EvalContext{Now: c.Clock().Now()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func TestCacheSelectionViewMatchesOnlyImpliedPredicates(t *testing.T) {
	c, _ := cacheFixture(t)
	// Query restricted to category 3: both item_prj and item_cat3 match;
	// ForceLocal + NoGuards shows a view was usable.
	p := plan(t, c, "SELECT i_price FROM Item WHERE i_cat = 3 CURRENCY 60 ON (Item)",
		opt.Options{NoGuards: true, ForceLocal: true, IgnoreConstraints: true})
	if !p.UsesLocal {
		t.Fatalf("plan = %s", p.Shape)
	}
	rows := runPlan(t, c, p)
	if len(rows) != 40 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Query over a different category must not use item_cat3.
	p = plan(t, c, "SELECT i_price FROM Item WHERE i_cat = 4 CURRENCY 60 ON (Item)",
		opt.Options{NoGuards: true, ForceLocal: true, IgnoreConstraints: true})
	if strings.Contains(p.Shape, "item_cat3") {
		t.Fatalf("selection view misused: %s", p.Shape)
	}
}

func TestCacheGuardedPlanExecutesLocally(t *testing.T) {
	c, _ := cacheFixture(t)
	p := plan(t, c, "SELECT i_price FROM Item WHERE i_id = 7 CURRENCY 3600 ON (Item)", opt.Options{})
	if p.Guards != 1 || !p.UsesLocal {
		t.Fatalf("plan = %s", p.Shape)
	}
	rows := runPlan(t, c, p)
	if len(rows) != 1 || rows[0][0].Float() != 7 {
		t.Fatalf("rows = %v", rows)
	}
	sus := exec.CollectSwitchUnions(p.Root)
	if len(sus) != 1 || sus[0].ChosenIndex() != 0 {
		t.Fatalf("guard decision = %+v", sus)
	}
}

func TestCacheGuardFallsBackWhenStale(t *testing.T) {
	c, clock := cacheFixture(t)
	clock.Advance(30 * time.Second) // both regions now 30s stale
	p := plan(t, c, "SELECT i_price FROM Item WHERE i_id = 7 CURRENCY 10 ON (Item)", opt.Options{ForceLocal: true})
	rows := runPlan(t, c, p)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	sus := exec.CollectSwitchUnions(p.Root)
	if len(sus) != 1 || sus[0].ChosenIndex() != 1 {
		t.Fatal("guard should have fallen back to remote")
	}
}

func TestCacheGuardedNLJAcrossRegions(t *testing.T) {
	c, _ := cacheFixture(t)
	// Join over both views (different regions, separate classes) with a
	// predicate wide enough that local execution wins.
	p := plan(t, c, `SELECT I.i_id, S.s_qty FROM Item I JOIN Stock S ON I.i_id = S.s_item
		WHERE I.i_price >= 0 CURRENCY 60 ON (I), 60 ON (S)`, opt.Options{ForceLocal: true})
	if !p.UsesLocal || p.Guards == 0 {
		t.Fatalf("plan = %s", p.Shape)
	}
	rows := runPlan(t, c, p)
	if len(rows) != 1600 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestCacheConsistencyClassAcrossRegionsRejectsLocal(t *testing.T) {
	c, _ := cacheFixture(t)
	p := plan(t, c, `SELECT I.i_id FROM Item I JOIN Stock S ON I.i_id = S.s_item
		WHERE I.i_id = 5 CURRENCY 60 ON (I, S)`, opt.Options{})
	if p.UsesLocal {
		t.Fatalf("cross-region class must force remote: %s", p.Shape)
	}
}

func TestCacheBoundBelowDelayPrunes(t *testing.T) {
	c, _ := cacheFixture(t)
	p := plan(t, c, "SELECT i_price FROM Item WHERE i_id = 7 CURRENCY 1 ON (Item)", opt.Options{})
	if p.UsesLocal || p.Guards != 0 {
		t.Fatalf("plan = %s", p.Shape)
	}
}

func TestCacheAggregationOverGuardedView(t *testing.T) {
	c, _ := cacheFixture(t)
	p := plan(t, c, `SELECT I.i_cat, COUNT(*) AS n FROM Item I
		WHERE I.i_price >= 0 GROUP BY I.i_cat ORDER BY I.i_cat
		CURRENCY 3600 ON (I)`, opt.Options{ForceLocal: true})
	rows := runPlan(t, c, p)
	if len(rows) != 10 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r[1].Int() != 40 {
			t.Fatalf("group = %v", r)
		}
	}
}

func TestCacheUnconstrainedLeafWithClausePresent(t *testing.T) {
	c, _ := cacheFixture(t)
	// Clause names only Item; Stock gets the tight default (bound 0) and
	// must come from the master.
	p := plan(t, c, `SELECT I.i_id FROM Item I JOIN Stock S ON I.i_id = S.s_item
		WHERE I.i_price >= 0 CURRENCY 60 ON (I)`, opt.Options{ForceLocal: true})
	if !strings.Contains(p.Shape, "Remote(Stock)") && !strings.Contains(p.Shape, "Remote") {
		t.Fatalf("Stock must be remote: %s", p.Shape)
	}
	if !p.UsesLocal {
		t.Fatalf("Item should still be local: %s", p.Shape)
	}
}
