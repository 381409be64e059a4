package mtcache_test

import (
	"runtime/debug"
	"testing"

	"relaxedcc/internal/tpcd"
)

// TestQueryAllocationBudget pins the allocations of a plan-cache-hit guarded
// local point read and of the benchmark's ~1,000-row range read (scan_cust).
// The operator tree is rebuilt on every plan-cache hit, so a per-tree
// allocation in the executor is a per-query allocation, and BENCHMARK.json
// bounds allocs_per_op at 1%: this catches such a regression in `go test`.
// The ceilings are this executor's counts plus slack for a pool refill;
// the three-protocol executor it replaced took 99 and 2,840.
func TestQueryAllocationBudget(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
		}
	}
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Cache.NewSession()
	for _, tc := range []struct {
		name, sql string
		rows      int
		ceiling   float64
	}{
		{"point", tpcd.PointQuery(17, "CURRENCY 60 ON (Customer)"), 1, 92},
		{"range", tpcd.RangeQuery(0, 1000, "CURRENCY 3600 ON (Customer)"), 1353, 145},
	} {
		res, err := s.Query(tc.sql) // plans and caches
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Rows) != tc.rows || len(res.LocalViews) == 0 {
			t.Fatalf("%s: %d rows, local views %v; want %d rows served locally", tc.name, len(res.Rows), res.LocalViews, tc.rows)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := s.Query(tc.sql); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per query, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}
