package opt_test

import (
	"testing"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/tpcd"
)

// TestOutputProjectionIsGather: a select list of bare columns makes the
// final projection a pure column gather (Cols set, no closure per output
// row), at the cache and at the back end; any computed item keeps the
// expression path.
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
			if (proj.Cols != nil) != tc.gather {
				t.Errorf("%s/%s: Cols = %v, want gather = %v (plan %s)", tc.name, site, proj.Cols, tc.gather, plan.Shape)
			}
			if tc.gather && len(proj.Cols) != len(proj.Out.Cols) {
				t.Errorf("%s/%s: %d ordinals for %d output columns", tc.name, site, len(proj.Cols), len(proj.Out.Cols))
			}
		}
	}
}
