package opt_test

import (
	"fmt"
	"sort"
	"testing"

	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
)

// TestTightJoinBoundsFallBackToRemote is the regression test for a valid
// query that errored: with both per-table bounds under their regions' delays
// every enumerated join order (even Remote ⋈ Remote, delivered as two
// consistency classes) is pruned, and planQuery returned "join enumeration
// produced no plan" before adding the ship-everything candidate that always
// satisfies the constraint on a cache. Every clause shape must plan, and
// answer like the back end.
func TestTightJoinBoundsFallBackToRemote(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	render := func(rows []sqltypes.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint([]sqltypes.Value(r))
		}
		sort.Strings(out)
		return out
	}
	for name, clause := range map[string]string{
		"both-tight": "CURRENCY 2 ON (C), 2 ON (O)",
		"one-tight":  "CURRENCY 2 ON (C), 120 ON (O)",
		"grouped":    "CURRENCY 2 ON (C, O)",
	} {
		sql := tpcd.JoinQuery("C.c_custkey = 17", clause)
		got, err := sys.Cache.Query(sql)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if name == "both-tight" && got.Plan.Shape != "Remote" {
			t.Errorf("%s: plan %s, want the ship-everything Remote", name, got.Plan.Shape)
		}
		want, err := sys.QueryBackend(sql)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := render(got.Rows), render(want.Rows); len(w) == 0 || fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s: cache answered %v, back end %v", name, g, w)
		}
	}
}
