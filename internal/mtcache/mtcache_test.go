package mtcache

import (
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/backend"
	"relaxedcc/internal/catalog"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/vclock"
)

func newPair(t *testing.T) (*Cache, *backend.Server, *vclock.Virtual) {
	t.Helper()
	clock := vclock.NewVirtual()
	b := backend.New(clock)
	if _, err := b.Exec("CREATE TABLE t (id BIGINT NOT NULL PRIMARY KEY, v VARCHAR(10), n BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)"); err != nil {
		t.Fatal(err)
	}
	b.AnalyzeAll()
	c := New(clock, b, clock.Advance)
	return c, b, clock
}

// partition cuts c's link to the back end until the returned injector is
// healed with SetPartitioned(false).
func partition(c *Cache) *fault.Injector {
	inj := fault.New(1)
	inj.SetPartitioned(true)
	c.Link().SetFault(inj)
	return inj
}

func addRegionAndView(t *testing.T, c *Cache) {
	t.Helper()
	agent, err := c.AddRegion(&catalog.Region{ID: 1, Name: "R", UpdateInterval: 10 * time.Second, UpdateDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(&catalog.View{
		Name: "t_prj", BaseTable: "t", Columns: []string{"id", "v"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	_ = agent
}

func TestShadowCatalogMirrorsBackend(t *testing.T) {
	c, b, _ := newPair(t)
	if c.Catalog().Table("t") == nil {
		t.Fatal("shadow table missing")
	}
	// DDL after attach is mirrored on demand.
	if _, err := b.Exec("CREATE TABLE u (id BIGINT NOT NULL PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("CREATE INDEX ix_n ON t (n)"); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncShadowSchema(); err != nil {
		t.Fatal(err)
	}
	if c.Catalog().Table("u") == nil {
		t.Fatal("new table not mirrored")
	}
	if c.Catalog().Table("t").IndexOn("n") == nil {
		t.Fatal("new index not mirrored")
	}
}

// TestSyncShadowSchemaReportsWhatItCannotMirror: a back-end definition the
// shadow catalog rejects (here two columns that collide) used to be dropped
// on the floor behind a dead branch; the first such error now reaches the
// callers that mirror the schema.
func TestSyncShadowSchemaReportsWhatItCannotMirror(t *testing.T) {
	c, b, _ := newPair(t)
	addRegionAndView(t, c)
	if err := c.SyncShadowSchema(); err != nil {
		t.Fatalf("a schema already mirrored: %v", err)
	}
	if _, err := b.Exec("CREATE TABLE u (id BIGINT NOT NULL PRIMARY KEY, w BIGINT)"); err != nil {
		t.Fatal(err)
	}
	u := b.Catalog().Table("u")
	u.Columns = append(u.Columns, catalog.Column{Name: "w", Type: sqltypes.KindInt})
	for name, mirror := range map[string]func() error{
		"SyncShadowSchema":   c.SyncShadowSchema,
		"RefreshShadowStats": c.RefreshShadowStats,
		"CreateView": func() error {
			return c.CreateView(&catalog.View{Name: "t_again", BaseTable: "t", Columns: []string{"id", "v"}, RegionID: 1})
		},
	} {
		if err := mirror(); err == nil || !strings.Contains(err.Error(), "duplicate column w") {
			t.Errorf("%s over a colliding definition: %v", name, err)
		}
	}
	if c.Catalog().Table("u") != nil || c.Catalog().View("t_again") != nil {
		t.Fatal("the rejected table, or a view made after it, was mirrored")
	}
	// An index the shadow table cannot take is reported too.
	u.Columns = u.Columns[:2]
	if err := c.SyncShadowSchema(); err != nil {
		t.Fatal(err)
	}
	t0 := b.Catalog().Table("t")
	t0.Indexes = append(t0.Indexes, &catalog.Index{Name: "ix_ghost", Table: "t", Columns: []string{"ghost"}})
	if err := c.SyncShadowSchema(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("an index on a column the shadow lacks: %v", err)
	}
}

func TestRefreshShadowStats(t *testing.T) {
	c, b, _ := newPair(t)
	addRegionAndView(t, c)
	b.Exec("INSERT INTO t VALUES (4, 'd', 40)")
	b.AnalyzeAll()
	if err := c.RefreshShadowStats(); err != nil {
		t.Fatal(err)
	}
	if got := c.Catalog().Table("t").Stats.Rows(); got != 4 {
		t.Fatalf("shadow rows = %d", got)
	}
	if got := c.ViewData("t_prj").Def().Stats.Rows(); got != 4 {
		t.Fatalf("view stats rows = %d", got)
	}
}

func TestCreateViewPopulatesAndValidates(t *testing.T) {
	c, _, _ := newPair(t)
	addRegionAndView(t, c)
	if got := c.ViewData("t_prj").Len(); got != 3 {
		t.Fatalf("view rows = %d", got)
	}
	// Duplicate name.
	err := c.CreateView(&catalog.View{Name: "t_prj", BaseTable: "t", Columns: []string{"id"}, RegionID: 1})
	if err == nil {
		t.Fatal("duplicate view accepted")
	}
	// Unknown region.
	err = c.CreateView(&catalog.View{Name: "v2", BaseTable: "t", Columns: []string{"id"}, RegionID: 9})
	if err == nil {
		t.Fatal("unknown region accepted")
	}
	// Unknown base table.
	err = c.CreateView(&catalog.View{Name: "v3", BaseTable: "zz", Columns: []string{"id"}, RegionID: 1})
	if err == nil {
		t.Fatal("unknown base accepted")
	}
}

func TestCreateViewWithExtraIndex(t *testing.T) {
	c, _, _ := newPair(t)
	agent, err := c.AddRegion(&catalog.Region{ID: 1, Name: "R", UpdateInterval: 10 * time.Second, UpdateDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_ = agent
	if err := c.CreateView(
		&catalog.View{Name: "t_all", BaseTable: "t", Columns: []string{"id", "v", "n"}, RegionID: 1},
		&catalog.Index{Name: "ix_view_n", Columns: []string{"n"}},
	); err != nil {
		t.Fatal(err)
	}
	def := c.ViewData("t_all").Def()
	if def.IndexOn("n") == nil {
		t.Fatal("extra index missing on view")
	}
	if msg := c.ViewData("t_all").CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
}

// TestHeartbeatTableUpserts: SetLastSync publishes a region's heartbeat
// through its agent, forward only; a region without an agent has none.
func TestHeartbeatTableUpserts(t *testing.T) {
	c, _, _ := newPair(t)
	if _, err := c.AddRegion(&catalog.Region{ID: 1, Name: "R", UpdateInterval: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	ts1 := vclock.Epoch.Add(time.Second)
	ts2 := vclock.Epoch.Add(2 * time.Second)
	c.SetLastSync(1, ts1)
	got, ok := c.LastSync(1)
	if !ok || !got.Equal(ts1) {
		t.Fatalf("LastSync = %v, %v", got, ok)
	}
	c.SetLastSync(1, ts2)
	if got, _ := c.LastSync(1); !got.Equal(ts2) {
		t.Fatal("newer timestamp not applied")
	}
	// Regressions are ignored (replication applies in order anyway).
	c.SetLastSync(1, ts1)
	if got, _ := c.LastSync(1); !got.Equal(ts2) {
		t.Fatal("older timestamp overwrote newer")
	}
	c.SetLastSync(5, ts1)
	if _, ok := c.LastSync(5); ok {
		t.Fatal("unknown region reported a sync")
	}
}

func TestExecForwardsDMLOnly(t *testing.T) {
	c, b, _ := newPair(t)
	n, err := c.Exec("UPDATE t SET n = 99 WHERE id = 1")
	if err != nil || n != 1 {
		t.Fatalf("exec = %d, %v", n, err)
	}
	res, _ := b.Query("SELECT n FROM t WHERE id = 1")
	if res.Rows[0][0].Int() != 99 {
		t.Fatal("update did not reach the back end")
	}
	// The second text of the shape runs from the back end's template.
	if n, err := c.Exec("UPDATE t SET n = 98 WHERE id = 2"); err != nil || n != 1 {
		t.Fatalf("exec = %d, %v", n, err)
	}
	if res, _ := b.Query("SELECT n FROM t WHERE id = 2"); res.Rows[0][0].Int() != 98 {
		t.Fatal("second update did not reach the back end")
	}
	for _, sql := range []string{"CREATE TABLE x (id INT PRIMARY KEY)", "SELECT 1", "BEGIN TIMEORDERED"} {
		if _, err := c.Exec(sql); err == nil || err.Error() != "mtcache: only DML is forwarded; use the cache API for definitions" {
			t.Fatalf("%s through Exec: %v", sql, err)
		}
	}
	if _, err := c.Exec("UPDATE t SET"); err == nil || !strings.HasPrefix(err.Error(), "sql: ") {
		t.Fatalf("a text that does not parse: %v", err)
	}
}

func TestQueryNoCurrencyIsRemoteAndCorrect(t *testing.T) {
	c, _, _ := newPair(t)
	addRegionAndView(t, c)
	res, err := c.Query("SELECT v FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteQueries == 0 || len(res.LocalViews) != 0 {
		t.Fatalf("result meta = %+v", res)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "b" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSessionStatements(t *testing.T) {
	c, _, _ := newPair(t)
	addRegionAndView(t, c)
	sess := c.NewSession()
	if _, err := sess.Execute("BEGIN TIMEORDERED"); err != nil {
		t.Fatal(err)
	}
	if !sess.TimeOrdered() {
		t.Fatal("bracket not opened")
	}
	if _, err := sess.Execute("INSERT INTO t VALUES (9, 'z', 0)"); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Execute("SELECT v FROM t WHERE id = 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("read own write through remote")
	}
	if _, err := sess.Execute("END TIMEORDERED"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("CREATE INDEX i ON t (v)"); err == nil || err.Error() != "mtcache: unsupported statement in session" {
		t.Fatalf("DDL in session: %v", err)
	}
	if _, err := sess.Execute("DELETE FROM t WHERE id = 'x'"); err == nil || !strings.Contains(err.Error(), "cannot compare") {
		t.Fatalf("DML that does not bind, in a session: %v", err)
	}
	if _, err := sess.Execute("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestServeStaleRequiresMatchingView(t *testing.T) {
	c, _, _ := newPair(t)
	addRegionAndView(t, c)
	partition(c)
	sess := c.NewSession()
	sess.Action = ActionServeStale
	// t_prj lacks column n: no matching view -> error even with serve-stale.
	if _, err := sess.Query("SELECT n FROM t WHERE id = 1"); err == nil {
		t.Fatal("serve-stale without a matching view should fail")
	}
	// With a matching view it answers stale.
	res, err := sess.Query("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.ServedStale {
		t.Fatal("not flagged stale")
	}
}

func TestPlanExposesOptions(t *testing.T) {
	c, _, clock := newPair(t)
	addRegionAndView(t, c)
	// Let the region sync.
	c.SetLastSync(1, clock.Now())
	sel, err := sqlparser.ParseSelect("SELECT v FROM t WHERE id = 1 CURRENCY 3600 ON (t)")
	if err != nil {
		t.Fatal(err)
	}
	plan, q, err := c.Plan(sel, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesLocal || plan.Guards != 1 {
		t.Fatalf("plan = %s", plan.Shape)
	}
	if len(q.Constraint.Classes) != 1 {
		t.Fatalf("constraint = %v", q.Constraint)
	}
	// NoGuards reads the view unguarded.
	plan, _, err = c.Plan(sel, opt.Options{NoGuards: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesLocal || plan.Guards != 0 {
		t.Fatalf("NoGuards plan = %s", plan.Shape)
	}
}

// TestPlanCacheReusesAndRevalidates: default-option queries reuse cached
// plans; the dynamic plan's guard still re-decides freshness per execution;
// creating a view invalidates the cache.
func TestPlanCacheReusesAndRevalidates(t *testing.T) {
	c, _, clock := newPair(t)
	addRegionAndView(t, c)
	c.SetLastSync(1, clock.Now())
	q := "SELECT v FROM t WHERE id = 1 CURRENCY 10 ON (t)"

	res1, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.LocalViews) != 1 {
		t.Fatalf("first run should be local: %+v", res1.Plan.Shape)
	}
	// The raw text is filed under the entry, and the result leads to the
	// entry's plan, which carries no tree.
	if e, _ := c.lookupText(q, false); e == nil || e.tmpl.Plan != res1.Plan || res1.Plan.Root != nil {
		t.Fatalf("raw text not filed under the cached plan, or the result exposes a tree: %+v", e)
	}
	// Same query again: plan reused (a plan-cache hit), and the guard
	// re-decides: age the region past the bound. Under the virtual clock
	// planning itself takes zero virtual time, so reuse is asserted via the
	// cache's own hit/miss counters rather than Setup.
	hitsBefore := c.obs.planHits.Value()
	clock.Advance(30 * time.Second)
	res2, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.obs.planHits.Value() != hitsBefore+1 {
		t.Fatal("second execution did not reuse the cached plan")
	}
	if len(res2.LocalViews) != 0 || res2.RemoteQueries == 0 {
		t.Fatal("cached plan's guard must re-decide freshness")
	}
	// Creating a view invalidates cached plans.
	if err := c.CreateView(&catalog.View{
		Name: "t_prj2", BaseTable: "t", Columns: []string{"id", "v", "n"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	missesBefore := c.obs.planMisses.Value()
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	if c.obs.planMisses.Value() != missesBefore+1 {
		t.Fatal("plan cache not invalidated by CreateView")
	}
}

// A session's Tenant label must flow into the sampled trace records — the
// load generator's per-tenant attribution on /queries/recent.
func TestSessionTenantLabelsTraceRecords(t *testing.T) {
	c, _, _ := newPair(t)
	addRegionAndView(t, c)
	s := c.NewSession()
	s.Tenant = "gold"
	// The tracer samples 1-in-8 starting with the first query, so one query
	// is guaranteed to land in the ring.
	if _, err := s.Query("SELECT id, v FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	recs := c.Tracer().Recent()
	if len(recs) == 0 {
		t.Fatal("no sampled trace records")
	}
	if recs[0].Tenant != "gold" {
		t.Fatalf("trace record tenant = %q, want %q", recs[0].Tenant, "gold")
	}
	// Sessions without a tenant stay unattributed (field omitted in JSON).
	if _, err := c.NewSession().Query("SELECT id, v FROM t WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
}
