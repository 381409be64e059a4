package core_test

import (
	"runtime"
	"sync"
	"testing"

	"relaxedcc/internal/core"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/tpcd"
)

// diffRunBoth plans one statement at the cache, executes it there and at
// the back end — two different physical plans (local views, guards and
// remote fetches against base-table access) over the same data — and
// requires identical result multisets. Returns the cache plan so callers
// can assert on its shape. The operator-level oracle, a naive evaluator
// that shares no batching code with production, lives in
// internal/exec/reference_test.go and covers the same statements.
func diffRunBoth(t *testing.T, sys *core.System, name, sql string, opts opt.Options) *opt.Plan {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	plan, _, err := sys.Cache.Plan(sel, opts)
	if err != nil {
		t.Fatalf("%s: plan: %v", name, err)
	}
	cache, err := exec.Run(plan.Root, &exec.EvalContext{Now: sys.Clock.Now()}, 0)
	if err != nil {
		t.Fatalf("%s: cache run: %v", name, err)
	}
	backend, err := sys.QueryBackend(sql)
	if err != nil {
		t.Fatalf("%s: back-end run: %v", name, err)
	}
	got := sortedRowStrings(cache.Rows)
	want := sortedRowStrings(backend.Rows)
	if len(got) != len(want) {
		t.Fatalf("%s: cache plan returned %d rows, back end %d\nplan: %s",
			name, len(got), len(want), plan.Shape)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result divergence at sorted row %d:\ncache:    %s\nback end: %s\nplan: %s",
				name, i, got[i], want[i], plan.Shape)
		}
	}
	return plan
}

// TestColumnarRowDifferentialMix pushes the full Table 4.2/4.3 TPC-D query
// mix (joins, currency guards, index ranges, plus the single-customer join)
// through the cache's plans and the back end's and requires byte-identical
// result multisets. This is the end-to-end contract behind the vectorized
// operators: whatever kernels, selection vectors, or gather paths a plan
// picks up, the rows that come out must not change.
func TestColumnarRowDifferentialMix(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.005, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	for _, c := range harness.PlanChoiceCases() {
		diffRunBoth(t, sys, c.Name, c.SQL, opt.Options{})
	}
	diffRunBoth(t, sys, "Q2-single", tpcd.CustomerOrdersQuery(17, ""), opt.Options{})
}

// TestColumnarRowDifferentialParallel is the work-stealing variant: a
// larger load, MaxDOP 4, and GOMAXPROCS raised so morsel-parallel scans run
// real workers with stealing enabled. The mix must contain at least one
// genuinely parallel plan (otherwise the test is vacuously serial and the
// scale needs retuning), and the whole differential runs from several
// goroutines at once so -race sweeps the stealing deque and the shared
// storage snapshots under contention.
func TestColumnarRowDifferentialParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	opts := opt.Options{MaxDOP: 4}
	// Relaxed currency bounds make the local views legal plan inputs; at
	// this scale the Orders view is large enough that its clustered full
	// scan beats serial access under MaxDOP 4.
	queries := []struct{ name, sql string }{
		{"join-relaxed", tpcd.JoinQuery("C.c_acctbal >= 0", "CURRENCY 30 ON (C), 30 ON (O)")},
		{"join-full", tpcd.JoinQuery("", "CURRENCY 30 ON (C), 30 ON (O)")},
		{"range-wide", tpcd.RangeQuery(0, 1000, "CURRENCY 30 ON (Customer)")},
	}

	parallel := 0
	for _, q := range queries {
		plan := diffRunBoth(t, sys, q.name, q.sql, opts)
		if plan.DOP > 1 {
			parallel++
		}
	}
	if parallel == 0 {
		t.Fatalf("no query in the mix planned parallel at MaxDOP=4; raise the scale factor")
	}

	// One staggered pass per goroutine is enough: all three queries overlap
	// in time, and the serial pass above already checked every answer.
	const goroutines = 3
	const iterations = 1
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				q := queries[(g+it)%len(queries)]
				diffRunBoth(t, sys, q.name, q.sql, opts)
			}
		}(g)
	}
	wg.Wait()
}
