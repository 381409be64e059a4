package opt_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"relaxedcc/internal/core"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/tpcd"
)

var update = flag.Bool("update", false, "rewrite testdata/candidates.golden and testdata/test_selects.corpus")

// TestCandidatesMatchGolden pins every complete plan the optimizer chooses
// among, in enumeration order, for the statements TestStatementsMatchReference
// runs (the seven benchmark templates, the plan-choice cases and the guard
// queries), at the cache and at the back end, under each option set the
// serving path passes. Each line is one candidate: shape, cost bits, delivered
// property, guards, local/remote leaves, DOP and whether it uses local data;
// the order is the enumeration order up to ties in cost. MaxDOP is fixed so the file does not depend on the host's core count. A
// refactor of the planner must leave the file byte-identical.
func TestCandidatesMatchGolden(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.005, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	stmts := goldenStatements()
	const dop = 4
	optionSets := []struct {
		name string
		opts opt.Options
	}{
		{"{}", opt.Options{MaxDOP: dop}},
		{"{MinSync}", opt.Options{MaxDOP: dop, MinSync: sys.Clock.Now()}},
		{"{ForceLocal}", opt.Options{MaxDOP: dop, ForceLocal: true}},
		{"{NoGuards}", opt.Options{MaxDOP: dop, NoGuards: true}},
		{"{NoGuards ForceLocal IgnoreConstraints}", opt.Options{MaxDOP: dop, NoGuards: true, ForceLocal: true, IgnoreConstraints: true}},
	}
	back := &opt.Site{
		Cat:        sys.Backend.Catalog(),
		LocalTable: sys.Backend.Table,
		LocalView:  func(string) *storage.Table { return nil },
		Clock:      sys.Backend.Clock(),
	}
	var b strings.Builder
	names := make([]string, 0, len(stmts))
	for name := range stmts {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		sel, err := sqlparser.ParseSelect(stmts[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, set := range optionSets {
			sites := []struct {
				name  string
				cands func() ([]*opt.Plan, error)
			}{
				{"cache", func() ([]*opt.Plan, error) { return sys.Cache.PlanCandidates(sel, set.opts) }},
				{"backend", func() ([]*opt.Plan, error) {
					return (&opt.Planner{Site: back, Opts: set.opts}).Candidates(sel)
				}},
			}
			for _, site := range sites {
				fmt.Fprintf(&b, "%s %s %s\n", name, site.name, set.name)
				plans, err := site.cands()
				if err != nil {
					fmt.Fprintf(&b, "  error: %v\n", err)
					continue
				}
				// Join enumeration walks a map, so candidates of equal cost
				// arrive in either order: each such run is written sorted.
				for i := 0; i < len(plans); {
					j := i + 1
					for j < len(plans) && plans[j].Cost == plans[i].Cost {
						j++
					}
					var run []string
					for _, p := range plans[i:j] {
						run = append(run, fmt.Sprintf("  %s cost=%s delivered=%s guards=%d leaves=%d/%d dop=%d local=%v\n",
							p.Shape, strconv.FormatFloat(p.Cost, 'g', -1, 64), p.Delivered.String(),
							p.Guards, p.LocalLeaves, p.RemoteLeaves, p.DOP, p.UsesLocal))
					}
					slices.Sort(run)
					b.WriteString(strings.Join(run, ""))
					i = j
				}
			}
		}
	}
	path := filepath.Join("testdata", "candidates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("candidates differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("candidates differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// goldenStatements are the statements TestCandidatesMatchGolden pins, by
// name: the seven benchmark templates, the Table 4.2/4.3 plan-choice cases
// and the guard queries.
func goldenStatements() map[string]string {
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
	return stmts
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
