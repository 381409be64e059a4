package mtcache_test

import (
	"testing"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/tpcd"
	"relaxedcc/internal/vclock"
)

// TestPlanRegret is the cost model's check against the clock. For every
// plan-choice case and every benchmark template it builds each plan the
// optimizer chose among, runs them all on the wall clock (best of five, after
// a warm-up run) and logs the chosen plan next to the fastest. The §6
// constants are abstract milliseconds nobody measured; this says where they
// mislead. It fails only when the chosen plan takes more than three times
// the fastest — wall-clock ratios on a shared host are not worth more — and
// is skipped under -short and under the race detector.
func TestPlanRegret(t *testing.T) {
	if testing.Short() || raceEnabled() {
		t.Skip("times plans on the wall clock")
	}
	// Each statement set on the system it is defined against: the plan-choice
	// cases with the report's statistics (scaled to the paper's cardinalities
	// — their choices are the pinned ones), the templates on the benchmark's
	// database.
	report, err := harness.NewSystem(harness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, report) })
	bench := loadedSystem(t, 0.1)
	type stmt struct {
		name, sql string
		sys       *core.System
	}
	var stmts []stmt
	for _, c := range harness.PlanChoiceCases() {
		stmts = append(stmts, stmt{"planchoice " + c.Name, c.SQL, report})
	}
	names := []string{"point", "join", "scan_cust", "join_local", "scan_orders", "agg_nation", "agg_top"}
	for i, sql := range benchTemplates(tpcd.Config{ScaleFactor: 0.1}.Customers()) {
		stmts = append(stmts, stmt{"template " + names[i], sql, bench})
	}
	wall := vclock.Wall{}
	for _, st := range stmts {
		name, sys := st.name, st.sys
		sel, err := sqlparser.ParseSelect(st.sql)
		if err != nil {
			t.Fatal(err)
		}
		chosen, _, err := sys.Cache.Plan(sel, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cands, err := sys.Cache.PlanCandidates(sel, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var chosenTime, fastest time.Duration
		fastestShape := ""
		for _, c := range cands {
			best := time.Duration(0)
			for run := 0; run < 6; run++ {
				start := wall.Now()
				if _, err := exec.Run(c.Root, &exec.EvalContext{Now: sys.Clock.Now()}, 0); err != nil {
					t.Fatalf("%s: %s: %v", name, c.Shape, err)
				}
				if d := wall.Now().Sub(start); run > 0 && (best == 0 || d < best) {
					best = d
				}
			}
			if c.Shape == chosen.Shape && chosenTime == 0 {
				chosenTime = best
			}
			if fastest == 0 || best < fastest {
				fastest, fastestShape = best, c.Shape
			}
			t.Logf("%-22s cost %9.3f  %10v  %s", name, c.Cost, best, c.Shape)
		}
		if chosenTime == 0 {
			t.Fatalf("%s: the chosen plan %s is not among the %d candidates", name, chosen.Shape, len(cands))
		}
		regret := float64(chosenTime) / float64(fastest)
		t.Logf("%-22s chose %s (%v), fastest %s (%v): regret %.2fx", name, chosen.Shape, chosenTime, fastestShape, fastest, regret)
		if regret > 3 {
			t.Errorf("%s: the chosen plan %s took %v, %s took %v (%.1fx)", name, chosen.Shape, chosenTime, fastestShape, fastest, regret)
		}
	}
}
