package opt_test

import (
	"testing"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/tpcd"
)

// TestOutputProjectionIsGather: a select list of bare columns makes the
// final projection one of columns only (no closure runs), at the cache and at
// the back end; a computed item is the only output that is not a column.
func TestOutputProjectionIsGather(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, sql string
		gather    bool
	}{
		{"point", tpcd.PointQuery(17, "CURRENCY 60 ON (Customer)"), true},
		{"range", tpcd.RangeQuery(0, 1000, "CURRENCY 60 ON (Customer)"), true},
		{"join", tpcd.JoinQuery("C.c_acctbal >= 9000", "CURRENCY 60 ON (C), 60 ON (O)"), true},
		{"computed", "SELECT c_custkey + 1 FROM Customer WHERE c_custkey = 17 CURRENCY 60 ON (Customer)", false},
		{"mixed", "SELECT c_custkey, c_acctbal * 2 FROM Customer WHERE c_custkey = 17 CURRENCY 60 ON (Customer)", false},
	} {
		sel, err := sqlparser.ParseSelect(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// ForceLocal keeps the cache from shipping the whole query, so it
		// builds its own output projection.
		cachePlan, _, err := sys.Cache.Plan(sel, opt.Options{ForceLocal: true})
		if err != nil {
			t.Fatalf("%s: cache plan: %v", tc.name, err)
		}
		backPlan, err := sys.Backend.Plan(sel)
		if err != nil {
			t.Fatalf("%s: back-end plan: %v", tc.name, err)
		}
		for site, plan := range map[string]*opt.Plan{"cache": cachePlan, "backend": backPlan} {
			proj, ok := plan.Root.(*exec.Project)
			if !ok {
				t.Fatalf("%s/%s: root is %T, want *exec.Project", tc.name, site, plan.Root)
			}
			if proj.Columns() != tc.gather {
				t.Errorf("%s/%s: columns only = %v, want %v (plan %s)", tc.name, site, proj.Columns(), tc.gather, plan.Shape)
			}
			if len(proj.Exprs) != len(proj.Out.Cols) {
				t.Errorf("%s/%s: %d expressions for %d output columns", tc.name, site, len(proj.Exprs), len(proj.Out.Cols))
			}
			if column := proj.Exprs[0].Fn == nil; column != (tc.name != "computed") {
				t.Errorf("%s/%s: first output is a column = %v", tc.name, site, column)
			}
		}
	}
}
