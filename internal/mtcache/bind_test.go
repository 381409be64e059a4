package mtcache_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/tpcd"
)

// bindSites runs one SELECT every way a statement reaches a plan: every
// candidate Planner.Candidates returns at the cache (under ForceLocal, with
// synced views) and at the back end, run; a cache session; and the back
// end's Server.Query. It returns each way's rows (rendered, sorted) or error,
// by name.
func bindSites(t *testing.T, sys *core.System, sql string) map[string]string {
	t.Helper()
	out := map[string]string{}
	render := func(res *exec.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return strings.Join(rowStrings(res.Rows), " ")
	}
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	for site, cands := range map[string]func() ([]*opt.Plan, error){
		"cache":   func() ([]*opt.Plan, error) { return sys.Cache.PlanCandidates(sel, opt.Options{ForceLocal: true}) },
		"backend": func() ([]*opt.Plan, error) { return backendPlanner(sys).Candidates(sel) },
	} {
		plans, err := cands()
		if err != nil {
			out[site+" candidates"] = render(nil, err)
			continue
		}
		for i, p := range plans {
			out[fmt.Sprintf("%s candidate %d %s", site, i, p.Shape)] = render(exec.Run(p.Root, &exec.EvalContext{Now: sys.Clock.Now()}, 0))
		}
	}
	res, err := sys.Cache.NewSession().Execute(sql)
	if err != nil {
		out["Session.Execute"] = render(nil, err)
	} else {
		out["Session.Execute"] = render(res.Result, nil)
	}
	out["Server.Query"] = render(sys.Backend.Query(sql))
	return out
}

// backendPlanner plans at the back end, for its candidates.
func backendPlanner(sys *core.System) *opt.Planner {
	return &opt.Planner{Site: &opt.Site{
		Cat:        sys.Backend.Catalog(),
		LocalTable: sys.Backend.Table,
		LocalView:  func(string) *storage.Table { return nil },
		Clock:      sys.Backend.Clock(),
	}}
}

// sameOutcome fails unless every way in got has the outcome want.
func sameOutcome(t *testing.T, what, want string, got map[string]string) {
	t.Helper()
	for way, g := range got {
		if g != want {
			t.Errorf("%s via %s: %q, want %q", what, way, g, want)
		}
	}
}

// emptyTPCD is the TPC-D schema and cache with no rows, its views synced.
func emptyTPCD(t *testing.T) *core.System {
	t.Helper()
	sys := core.NewSystem()
	tpcd.CreateSchema(sys)
	if err := tpcd.SetupCache(sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMismatchedKindsFailAtBind: a literal of another kind than its column —
// against the clustered key, the secondary-index column and a plain column,
// with =, <, BETWEEN and IN — and a join edge between a VARCHAR and a BIGINT
// column fail with one bind error on every plan candidate at both sites,
// through a session and through Server.Query, on a loaded and on an empty
// table, and as the WHERE of an UPDATE and a DELETE. Before binding, a key
// seek or a join on encoded keys returned no rows where a scan failed, and
// `IN ('5', 6)` returned customer 6. Well-typed controls (INT and FLOAT meet,
// NULL never matches) answer alike on every path.
func TestMismatchedKindsFailAtBind(t *testing.T) {
	const cust = "SELECT c_custkey FROM Customer WHERE %s CURRENCY 3600 ON (Customer)"
	type row struct{ where, err string }
	var rows []row
	for _, c := range []struct{ col, kind, lit string }{
		{"c_custkey", "BIGINT", "'5'"},
		{"c_acctbal", "DOUBLE", "'x'"},
		{"c_nationkey", "BIGINT", "'5'"},
		{"c_name", "VARCHAR", "5"},
	} {
		litKind := "VARCHAR"
		if c.kind == "VARCHAR" {
			litKind = "BIGINT"
		}
		err := "error: exec: cannot compare " + c.kind + " with " + litKind
		rows = append(rows,
			row{c.col + " = " + c.lit, err},
			row{c.col + " < " + c.lit, err},
			row{c.col + " BETWEEN " + c.lit + " AND 3", err},
			row{c.col + " IN (" + c.lit + ", 6)", err},
			row{c.col + " IN (6, " + c.lit + ")", err},
		)
	}
	loaded, empty := loadedSystem(t, 0.01), emptyTPCD(t)
	for _, sys := range []*core.System{loaded, empty} {
		for _, r := range rows {
			sameOutcome(t, r.where, r.err, bindSites(t, sys, fmt.Sprintf(cust, r.where)))
			for _, dml := range []string{"UPDATE Customer SET c_acctbal = 0 WHERE ", "DELETE FROM Customer WHERE "} {
				_, errS := sys.Cache.NewSession().Execute(dml + r.where)
				_, errB := sys.Backend.Exec(dml + r.where)
				if errS == nil || errB == nil || "error: "+errS.Error() != r.err || "error: "+errB.Error() != r.err {
					t.Errorf("%s%s: session %v, back end %v, want %s", dml, r.where, errS, errB, r.err)
				}
			}
		}
		for _, op := range []string{"=", "<"} {
			join := "SELECT C.c_custkey, O.o_orderkey FROM Customer C JOIN Orders O ON C.c_name " + op + " O.o_custkey CURRENCY 3600 ON (C), 3600 ON (O)"
			sameOutcome(t, join, "error: exec: cannot compare VARCHAR with BIGINT", bindSites(t, sys, join))
		}
	}
	for _, c := range []struct {
		where string
		keys  string
		dml   int
	}{
		{"c_custkey = 5.0", "(5)", 1},
		{"c_custkey = 5.5", "", 0},
		{"c_custkey BETWEEN 4.5 AND 6.5", "(5) (6)", 2},
		{"c_custkey IN (5.0, 7)", "(5) (7)", 2},
		{"c_custkey = NULL", "", 0},
	} {
		sameOutcome(t, c.where, c.keys, bindSites(t, loaded, fmt.Sprintf(cust, c.where)))
		upd := "UPDATE Customer SET c_acctbal = c_acctbal WHERE " + c.where
		if _, err := loaded.Cache.NewSession().Execute(upd); err != nil {
			t.Errorf("%s through a session: %v", upd, err)
		}
		if n, err := loaded.Backend.Exec(upd); n != c.dml || err != nil {
			t.Errorf("%s: %d rows, %v; want %d", upd, n, err, c.dml)
		}
	}
}

// TestDeclaredOutputKindsAreTrue: every result column's declared kind is the
// kind of each non-NULL value it returns, on every candidate at both sites,
// through a session and through Server.Query. Computed items and aggregates
// take their kinds from binding: SUM of a DOUBLE is DOUBLE, COUNT is BIGINT,
// MIN of a VARCHAR is VARCHAR (declared DOUBLE before binding, which a
// HAVING comparing it with a string could not then have compiled against).
func TestDeclaredOutputKindsAreTrue(t *testing.T) {
	sys := loadedSystem(t, 0.01)
	const hour = "CURRENCY 3600 ON "
	// Runs at the parent and must still bind; at this scale no nation's first
	// name sorts past customer 140, so it returns no rows, and the statement
	// after it in the list is the one that does.
	const minName = "SELECT c_nationkey, MIN(c_name) FROM Customer GROUP BY c_nationkey HAVING MIN(c_name) > 'Customer#000000140'"
	stmts := []string{
		tpcd.PointQuery(17, hour+"(Customer)"),
		tpcd.CustomerOrdersQuery(17, hour+"(C), 3600 ON (O)"),
		tpcd.JoinQuery("C.c_custkey <= 20", hour+"(C), 3600 ON (O)"),
		tpcd.RangeQuery(0, 1000, hour+"(Customer)"),
		"SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM Customer GROUP BY c_nationkey " + hour + "(Customer)",
		"SELECT TOP 10 o_custkey, SUM(o_totalprice) AS total FROM Orders WHERE o_custkey <= 15 GROUP BY o_custkey ORDER BY total DESC " + hour + "(Orders)",
		minName,
		"SELECT c_nationkey, MIN(c_name) FROM Customer GROUP BY c_nationkey HAVING MIN(c_name) > 'Customer#000000010'",
		"SELECT c_custkey + 1, c_custkey * 2.5, -c_acctbal, ABS(c_nationkey - 3), c_custkey / 2 FROM Customer WHERE c_custkey < 5 " + hour + "(Customer)",
		"SELECT o_custkey, AVG(o_totalprice), MAX(o_orderkey), SUM(o_orderkey) FROM Orders WHERE o_custkey < 4 GROUP BY o_custkey",
	}
	// A SELECT without FROM, which the back end plans by itself.
	if res, err := sys.Backend.Query("SELECT 1, 2.5, 'x', 1 + 2.5, 7 / 2"); err != nil {
		t.Fatal(err)
	} else {
		for i, v := range res.Rows[0] {
			if c := res.Schema.Cols[i]; v.Kind() != c.Kind {
				t.Errorf("SELECT without FROM: column %s declared %s holds %s", c.Name, c.Kind, v)
			}
		}
	}
	for _, sql := range stmts {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		results := map[string]*exec.Result{}
		cache, err := sys.Cache.PlanCandidates(sel, opt.Options{ForceLocal: true})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		backend, err := backendPlanner(sys).Candidates(sel)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for i, p := range slices.Concat(cache, backend) {
			if results[fmt.Sprintf("candidate %d %s", i, p.Shape)], err = exec.Run(p.Root, &exec.EvalContext{Now: sys.Clock.Now()}, 0); err != nil {
				t.Fatalf("%s: %s: %v", sql, p.Shape, err)
			}
		}
		res, err := sys.Cache.NewSession().Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		results["Session.Execute"] = res.Result
		if results["Server.Query"], err = sys.Backend.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for way, res := range results {
			if len(res.Rows) == 0 && sql != minName {
				t.Errorf("%s via %s: no rows to check", sql, way)
			}
			for _, r := range res.Rows {
				for i, v := range r {
					if c := res.Schema.Cols[i]; !v.IsNull() && v.Kind() != c.Kind {
						t.Errorf("%s via %s: column %s declared %s holds %s", sql, way, c.Name, c.Kind, v)
					}
				}
			}
		}
	}
}
