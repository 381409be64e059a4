package tpcd

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

func TestConfigCardinalities(t *testing.T) {
	cfg := Config{ScaleFactor: 1.0}
	if cfg.Customers() != 150000 || cfg.Orders() != 1500000 {
		t.Fatalf("scale 1.0 = %d / %d", cfg.Customers(), cfg.Orders())
	}
	cfg = Config{ScaleFactor: 0.01}
	if cfg.Customers() != 1500 || cfg.Orders() != 15000 {
		t.Fatalf("scale 0.01 = %d / %d", cfg.Customers(), cfg.Orders())
	}
	if (Config{ScaleFactor: 0}).Customers() != 1 {
		t.Fatal("floor at one customer")
	}
}

func TestRowGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := CustomerRow(7, rng)
	if c[0].Int() != 7 || !strings.HasPrefix(c[1].Str(), "Customer#") {
		t.Fatalf("customer = %v", c)
	}
	if bal := c[3].Float(); bal < AcctBalMin || bal > AcctBalMax {
		t.Fatalf("acctbal = %v", bal)
	}
	if nk := c[2].Int(); nk < 0 || nk > 24 {
		t.Fatalf("nationkey = %v", nk)
	}
	o := OrderRow(7, 70, time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC), rng)
	if o[0].Int() != 7 || o[1].Int() != 70 {
		t.Fatalf("order keys = %v", o)
	}
	if p := o[2].Float(); p < 900 || p > 500000 {
		t.Fatalf("totalprice = %v", p)
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := CustomerRow(1, rand.New(rand.NewSource(5)))
	b := CustomerRow(1, rand.New(rand.NewSource(5)))
	if !a.Equal(b) {
		t.Fatal("same seed must generate identical rows")
	}
}

func TestLoadedSystemEndToEnd(t *testing.T) {
	sys, err := NewLoadedSystem(Config{ScaleFactor: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	res, err := sys.QueryBackend("SELECT COUNT(*) FROM Customer")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 150 {
		t.Fatalf("customers = %v", res.Rows[0][0])
	}
	res, _ = sys.QueryBackend("SELECT COUNT(*) FROM Orders")
	if res.Rows[0][0].Int() != 1500 {
		t.Fatalf("orders = %v", res.Rows[0][0])
	}
	// Views are populated with identical counts.
	if got := sys.Cache.ViewData("cust_prj").Len(); got != 150 {
		t.Fatalf("cust_prj rows = %d", got)
	}
	if got := sys.Cache.ViewData("orders_prj").Len(); got != 1500 {
		t.Fatalf("orders_prj rows = %d", got)
	}
	// Both regions have synchronized at least once.
	if _, ok := sys.Cache.LastSync(RegionCR1); !ok {
		t.Fatal("CR1 never synced")
	}
	if _, ok := sys.Cache.LastSync(RegionCR2); !ok {
		t.Fatal("CR2 never synced")
	}
	// Statistics reflect the load.
	if got := sys.Cache.Catalog().Table("Customer").Stats.Rows(); got != 150 {
		t.Fatalf("shadow stats = %d", got)
	}
}

func TestQuerySchemasParse(t *testing.T) {
	queries := []string{
		JoinQuery("", ""),
		JoinQuery("C.c_custkey = 1", "CURRENCY 10 ON (C, O)"),
		RangeQuery(0, 100, "CURRENCY 10 ON (Customer)"),
		PointQuery(5, ""),
		CustomerOrdersQuery(5, "CURRENCY 10 ON (C), 10 ON (O)"),
	}
	for _, q := range queries {
		if _, err := sqlparser.ParseSelect(q); err != nil {
			t.Errorf("%q: %v", q, err)
		}
	}
}

func TestRegionSettingsMatchTable41(t *testing.T) {
	sys, err := NewLoadedSystem(Config{ScaleFactor: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	cr1 := sys.Cache.Catalog().Region(RegionCR1)
	cr2 := sys.Cache.Catalog().Region(RegionCR2)
	if cr1.UpdateInterval != 15*time.Second || cr1.UpdateDelay != 5*time.Second {
		t.Fatalf("CR1 = %+v", cr1)
	}
	if cr2.UpdateInterval != 10*time.Second || cr2.UpdateDelay != 5*time.Second {
		t.Fatalf("CR2 = %+v", cr2)
	}
}

// auditClean fails t when the system's auditor caught a read that broke its
// promise silently: every test on a loaded system is an oracle run.
func auditClean(t *testing.T, sys *core.System) {
	t.Helper()
	if s := sys.Audit().Summary(); s.ViolationsTotal != 0 {
		t.Errorf("auditor: %d of %d reads broke their promise silently, the last %+v",
			s.ViolationsTotal, s.ReadsChecked, s.RecentViolations[len(s.RecentViolations)-1])
	}
}

// TestLoadedSystemReleasesTheLoad: once both agents have applied the load,
// its commits keep their times but not their rows, the tables still match
// their log's digest, and a row changed behind the log's back does not.
func TestLoadedSystemReleasesTheLoad(t *testing.T) {
	sys, err := NewLoadedSystem(Config{ScaleFactor: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	slowest := sys.Backend.Log().LastSeq()
	for _, a := range sys.Cache.Agents() {
		slowest = min(slowest, storage.Seq(a.Word().Load()))
	}
	recs := sys.Backend.Log().Since(0)
	if slowest < int64(len(recs))/2 {
		t.Fatalf("the slower agent applied %d of %d commits", slowest, len(recs))
	}
	for _, rec := range recs[:slowest] {
		if rec.Changes != nil || rec.TS.At.IsZero() {
			t.Fatalf("record %d, applied by every agent, keeps %d changes (time %v)", rec.TS.Seq, len(rec.Changes), rec.TS.At)
		}
	}
	if err := sys.Backend.CheckLog(); err != nil {
		t.Fatal(err)
	}
	cust := sys.Backend.Table("Customer")
	row, ok := cust.Get(sqltypes.Row{sqltypes.NewInt(7)})
	if !ok {
		t.Fatal("no customer 7")
	}
	moved := row.Clone()
	moved[3] = sqltypes.NewFloat(row[3].Float() + 1)
	if err := cust.Replace(row, moved); err != nil {
		t.Fatal(err)
	}
	if err := sys.Backend.CheckLog(); err == nil || !strings.Contains(err.Error(), "table Customer is not its log") {
		t.Fatalf("CheckLog after an unlogged update = %v, want Customer not its log", err)
	}
}
