package core_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"relaxedcc/internal/harness"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
)

func sortedRowStrings(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint([]sqltypes.Value(r))
	}
	sort.Strings(out)
	return out
}

// TestConcurrentQueryMixMatchesSerial runs the Table 4.2 query mix from
// several goroutines — each with its own cache session — against one shared
// system, and requires every concurrent result to equal the serial baseline.
// Under -race this validates that the batched executor and the shared
// storage/catalog state tolerate concurrent query execution.
func TestConcurrentQueryMixMatchesSerial(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.005, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	cases := harness.PlanChoiceCases()

	// Serial baseline: no time advancement or writes happen below, so every
	// later execution must see exactly this data.
	baseline := make(map[string][]string, len(cases))
	sess := sys.Cache.NewSession()
	for _, c := range cases {
		res, err := sess.Query(c.SQL)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		baseline[c.Name] = sortedRowStrings(res.Rows)
	}

	const goroutines = 4
	const iterations = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := sys.Cache.NewSession()
			for it := 0; it < iterations; it++ {
				// Stagger the starting case per goroutine so different
				// queries overlap in time.
				for i := range cases {
					c := cases[(i+g)%len(cases)]
					res, err := sess.Query(c.SQL)
					if err != nil {
						t.Errorf("g%d %s: %v", g, c.Name, err)
						return
					}
					got := sortedRowStrings(res.Rows)
					want := baseline[c.Name]
					if len(got) != len(want) {
						t.Errorf("g%d %s: %d rows, want %d", g, c.Name, len(got), len(want))
						return
					}
					for j := range got {
						if got[j] != want[j] {
							t.Errorf("g%d %s: row %d differs from serial baseline", g, c.Name, j)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
