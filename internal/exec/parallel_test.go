package exec

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// parallelTable builds a clustered table with n rows so a split of the
// B+-tree yields many morsels.
func parallelTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	c := catalog.New()
	def := &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt, NotNull: true},
			{Name: "name", Type: sqltypes.KindString},
			{Name: "bal", Type: sqltypes.KindFloat},
		},
		PrimaryKey: []string{"id"},
	}
	if err := c.AddTable(def); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(c.Table("t"))
	for i := 1; i <= n; i++ {
		row := sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprint(i % 3)),
			sqltypes.NewFloat(float64(i)),
		}
		if err := tbl.Replace(nil, row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestParallelScanMatchesSerialScan compares a morsel-parallel scan against
// the serial Scan as a multiset, across worker counts and batch sizes.
func TestParallelScanMatchesSerialScan(t *testing.T) {
	const n = 5000
	tbl := parallelTable(t, n)
	s := testSchema("t")
	want := drain(t, NewScan(tbl, s))
	if len(want) != n {
		t.Fatalf("serial scan = %d rows", len(want))
	}
	for _, dop := range []int{1, 2, 4} {
		for _, bs := range []int{1, 64, 1024} {
			ps := NewParallelScan(tbl, s)
			ps.DOP = dop
			res, err := Run(ps, &EvalContext{Now: testNow, BatchSize: bs}, 0)
			if err != nil {
				t.Fatalf("dop=%d bs=%d: %v", dop, bs, err)
			}
			assertSameRows(t, fmt.Sprintf("dop=%d bs=%d", dop, bs), res.Rows, want, false)
			if got := ps.RowsScanned(); got != n {
				t.Fatalf("dop=%d bs=%d: RowsScanned = %d, want %d", dop, bs, got, n)
			}
		}
	}
}

// TestParallelScanBounds restricts the scan to a clustered key range and
// compares against a serial primary-index range scan.
func TestParallelScanBounds(t *testing.T) {
	tbl := parallelTable(t, 3000)
	s := testSchema("t")
	lo := storage.Bound{Vals: sqltypes.Row{intv(1000)}, Inclusive: true}
	hi := storage.Bound{Vals: sqltypes.Row{intv(2000)}, Inclusive: true}

	serial := NewScan(tbl, s)
	serial.Index = "pk_t"
	serial.Lo, serial.Hi = lo, hi
	want := drain(t, serial)
	if len(want) != 1001 {
		t.Fatalf("serial range = %d rows", len(want))
	}

	ps := NewParallelScan(tbl, s)
	ps.Lo, ps.Hi = lo, hi
	ps.DOP = 4
	res, err := Run(ps, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "bounded parallel scan", res.Rows, want, false)
}

// TestParallelScanFilter pushes a residual predicate into the workers. The
// workers run the lifted row closure, each over its own scratch row, and
// are checked against a serial scan under the typed kernel.
func TestParallelScanFilter(t *testing.T) {
	const n = 3000
	tbl := parallelTable(t, n)
	s := testSchema("t")
	serial := NewScan(tbl, s)
	serial.Filter = pred(t, "name = '0'", s)
	want := drain(t, serial)

	ps := NewParallelScan(tbl, s)
	ps.Filter = lifted(t, "name = '0'", s)
	ps.DOP = 4
	res, err := Run(ps, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "filtered parallel scan", res.Rows, want, false)
	if got := ps.RowsScanned(); got != n {
		t.Fatalf("RowsScanned = %d, want %d (filter applies after the read)", got, n)
	}
}

// TestParallelScanAndKernelEmptyChunks is a regression test for the
// nil-selection bug in the workers' kernel path: with an AND kernel whose
// first conjunct rejects entire chunks, a worker's first filtered
// chunk ran the second conjunct over all rows (nil survivors read as "all
// rows") and emitted rows failing the first predicate. Exercised at DOP 1
// (the serial arm's scratch) and DOP 4 (every worker's scratch).
func TestParallelScanAndKernelEmptyChunks(t *testing.T) {
	const n = 3000
	tbl := parallelTable(t, n)
	s := testSchema("t")

	serial := NewScan(tbl, s)
	serial.Filter = lifted(t, "id > 2990 AND bal < 2995", s)
	want := drain(t, serial)
	if len(want) != 4 { // ids 2991..2994
		t.Fatalf("serial = %d rows, want 4", len(want))
	}

	for _, dop := range []int{1, 4} {
		ps := NewParallelScan(tbl, s)
		ps.Filter = pred(t, "id > 2990 AND bal < 2995", s)
		ps.DOP = dop
		res, err := Run(ps, &EvalContext{Now: testNow, BatchSize: 64}, 0)
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		assertSameRows(t, fmt.Sprintf("and-kernel dop=%d", dop), res.Rows, want, false)
	}
}

// TestParallelScanEarlyClose closes the scan after one batch: workers must
// unwind without deadlocking, and the operator must be reusable.
func TestParallelScanEarlyClose(t *testing.T) {
	tbl := parallelTable(t, 5000)
	s := testSchema("t")
	ps := NewParallelScan(tbl, s)
	ps.DOP = 4
	for i := 0; i < 3; i++ {
		if err := ps.Open(&EvalContext{Now: testNow, BatchSize: 16}); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := ps.NextVec(); err != nil || !ok {
			t.Fatalf("pass %d: first batch ok=%v err=%v", i, ok, err)
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
		// Double Close must be safe.
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelScanFilterError propagates a worker-side evaluation error to
// the consumer and still tears down cleanly.
func TestParallelScanFilterError(t *testing.T) {
	tbl := parallelTable(t, 2000)
	s := testSchema("t")
	ps := NewParallelScan(tbl, s)
	ps.Filter = pred(t, "id / 0 > 1", s)
	ps.DOP = 4
	if _, err := Run(ps, ctx(), 0); err == nil {
		t.Fatal("worker error not propagated")
	}
}

// TestParallelScanRowMode drains the exchange in one-row batches: every
// worker flush and every consumer step moves a single row.
func TestParallelScanRowMode(t *testing.T) {
	const n = 2000
	tbl := parallelTable(t, n)
	s := testSchema("t")
	want := drain(t, NewScan(tbl, s))
	ps := NewParallelScan(tbl, s)
	ps.DOP = 2
	res, err := Run(ps, &EvalContext{Now: testNow, BatchSize: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "row-mode parallel scan", res.Rows, want, false)
}

// TestParallelScanSmallInputClampsDOP: the effective worker count must never
// exceed the number of morsels, so tiny tables run inline instead of paying
// goroutine and exchange setup for work one worker finishes first.
func TestParallelScanSmallInputClampsDOP(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	tbl := parallelTable(t, 50) // well under one morsel's row floor
	s := testSchema("t")
	ps := NewParallelScan(tbl, s)
	ps.DOP = 8
	res, err := Run(ps, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.EffectiveDOP(); got != 1 {
		t.Fatalf("EffectiveDOP = %d, want 1 for a 50-row table", got)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("rows = %d, want 50", len(res.Rows))
	}

	// A table with plenty of rows keeps the requested parallelism.
	big := parallelTable(t, 40000)
	ps2 := NewParallelScan(big, s)
	ps2.DOP = 4
	res2, err := Run(ps2, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps2.EffectiveDOP(); got != 4 {
		t.Fatalf("EffectiveDOP = %d, want 4 for a 40k-row table", got)
	}
	if len(res2.Rows) != 40000 {
		t.Fatalf("rows = %d, want 40000", len(res2.Rows))
	}
}

// TestParallelScanWorkStealing forces real multi-worker execution (GOMAXPROCS
// raised above the host's core count if needed) and checks the stealing
// scheduler covers every morsel exactly once, with and without a residual.
func TestParallelScanWorkStealing(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n = 30000
	tbl := parallelTable(t, n)
	s := testSchema("t")
	want := drain(t, NewScan(tbl, s))

	for _, bs := range []int{16, 1024} {
		ps := NewParallelScan(tbl, s)
		ps.DOP = 4
		res, err := Run(ps, &EvalContext{Now: testNow, BatchSize: bs}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ps.EffectiveDOP() < 2 {
			t.Fatalf("bs=%d: EffectiveDOP = %d, want multi-worker", bs, ps.EffectiveDOP())
		}
		assertSameRows(t, fmt.Sprintf("stealing bs=%d", bs), res.Rows, want, false)
		if got := ps.RowsScanned(); got != n {
			t.Fatalf("bs=%d: RowsScanned = %d, want %d", bs, got, n)
		}
	}

	// Residual through the vectorized kernel inside the workers.
	fs := NewScan(tbl, s)
	fs.Filter = lifted(t, "name = '0'", s)
	fwant := drain(t, fs)

	ps := NewParallelScan(tbl, s)
	ps.Filter = pred(t, "name = '0'", s)
	ps.DOP = 4
	res, err := Run(ps, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "stealing filtered", res.Rows, fwant, false)
	if got := ps.RowsScanned(); got != n {
		t.Fatalf("filtered: RowsScanned = %d, want %d", got, n)
	}
}

// drainOnce opens op, reads every batch and closes it, returning the rows
// read and the first error.
func drainOnce(op Operator, ctx *EvalContext) (int, error) {
	if err := op.Open(ctx); err != nil {
		op.Close()
		return 0, err
	}
	rows := 0
	for {
		cb, ok, err := op.NextVec()
		if err != nil || !ok {
			op.Close()
			return rows, err
		}
		rows += cb.NumActive()
	}
}

// allocsPerRun is testing.AllocsPerRun at the current GOMAXPROCS, which
// AllocsPerRun sets to 1 (and a parallel scan with it to one worker): the
// mallocs of every goroutine over runs calls of f, divided by runs and
// rounded down, after ten calls to warm up. An exchange batch grows its
// vectors the first time a helper fills it, which on a busy host can be any
// run, so it counts three rounds and returns the fewest.
func allocsPerRun(runs int, f func()) float64 {
	for range 10 {
		f()
	}
	fewest := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return float64(fewest)
}

// TestReusedParallelScanAllocations: a reused tree's run at two workers
// allocates at most its helper's start — the morsels, queues, exchange and
// batches keep their capacity across runs — whether the scan feeds a
// consumer through the exchange or an Aggregate folds it in place.
func TestReusedParallelScanAllocations(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	const n = 20000
	tbl := parallelTable(t, n)
	s := testSchema("t")
	scan := func() *ParallelScan {
		ps := NewParallelScan(tbl, s)
		ps.Filter, ps.DOP = pred(t, "bal > 5000", s), 2
		return ps
	}
	byName := &Aggregate{
		Child:     scan(),
		GroupCols: []int{1},
		Aggs:      []AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: Expr{Col: 2}}},
		Out:       NewSchema(Col{Name: "name"}, Col{Name: "n"}, Col{Name: "s"}),
	}
	ctx := &EvalContext{Now: testNow}
	for _, c := range []struct {
		name string
		op   Operator
		ps   *ParallelScan
		rows int
	}{
		{"scan", scan(), nil, n - 5000},
		{"aggregate", byName, byName.Child.(*ParallelScan), 3},
	} {
		if c.ps == nil {
			c.ps = c.op.(*ParallelScan)
		}
		run := func() {
			if rows, err := drainOnce(c.op, ctx); err != nil || rows != c.rows {
				t.Fatalf("%s: %d rows, %v; want %d", c.name, rows, err, c.rows)
			}
		}
		run()
		if got := c.ps.EffectiveDOP(); got != 2 {
			t.Fatalf("%s: EffectiveDOP = %d, want 2", c.name, got)
		}
		allocs := allocsPerRun(100, run)
		if got := c.ps.EffectiveDOP(); got != 2 {
			t.Fatalf("%s: EffectiveDOP = %d while counting, want 2", c.name, got)
		}
		if t.Logf("%s: %v allocations per run", c.name, allocs); allocs > 1 {
			t.Errorf("%s: a reused run allocates %v times, want at most 1 (its helper)", c.name, allocs)
		}
	}
}

// TestParallelScanHelpersEndAtClose: every helper a run starts has ended
// when Close returns — one blocked on a full exchange, one that stopped on
// an error while the consumer was inside a morsel, and those of a thousand
// runs of one tree — so no goroutine outlives its query.
func TestParallelScanHelpersEndAtClose(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	base := runtime.NumGoroutine()
	const n = 20000
	tbl := parallelTable(t, n)
	s := testSchema("t")
	ps := NewParallelScan(tbl, s)
	ps.DOP = 2
	small := &EvalContext{Now: testNow, BatchSize: 16}
	// waitFor polls cond, failing the test after a few seconds.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for start := time.Now(); !cond(); time.Sleep(time.Millisecond) {
			if time.Since(start) > 5*time.Second {
				t.Fatalf("%s: still waiting after 5s", what)
			}
		}
	}
	closeWithin := func(what string) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- ps.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: Close: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Close did not return", what)
		}
		waitFor(what+": goroutines back to the starting count", func() bool { return runtime.NumGoroutine() <= base })
	}

	// A helper blocked on a full exchange.
	if err := ps.Open(small); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ps.NextVec(); !ok || err != nil {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	waitFor("exchange full", func() bool { return len(ps.ready) == cap(ps.ready) })
	closeWithin("blocked helper")

	// A helper failing while the consumer is inside its first morsel: the
	// filter fails on the rows of the morsel the helper's queue starts with.
	ms, _ := tbl.Morsels(nil, nil, storage.Bound{}, storage.Bound{}, 8)
	var cur storage.Cursor
	cur.Keys(ms[len(ms)/2].Start, ms[len(ms)/2].End)
	var first int64
	tbl.Step(&cur, 1, func(view *sqltypes.ColBatch) (int, error) {
		first = view.Col(0).I64[0]
		return 1, nil
	})
	errHelper := errors.New("helper's row")
	fail := Compiled(func(_ *EvalContext, r sqltypes.Row) (sqltypes.Value, error) {
		if r[0].Int() >= first {
			return sqltypes.Null, errHelper
		}
		return sqltypes.NewBool(true), nil
	})
	ps.Filter = &Pred{Row: fail, batch: lift(fail)}
	if err := ps.Open(small); err != nil {
		t.Fatal(err)
	}
	if len(ps.morsels) != len(ms) {
		t.Fatalf("the scan cut %d morsels, the test %d", len(ps.morsels), len(ms))
	}
	if cb, ok, err := ps.NextVec(); !ok || err != nil || cb.Col(0).I64[at(cb.Sel, 0)] >= first {
		t.Fatalf("first batch: ok=%v err=%v, want one of the consumer's rows", ok, err)
	}
	if !ps.mid {
		t.Fatal("the consumer is not inside a morsel")
	}
	waitFor("the helper's error", ps.stopped.Load)
	var err error
	for ok := true; ok && err == nil; _, ok, err = ps.NextVec() {
	}
	if !errors.Is(err, errHelper) {
		t.Fatalf("drain after the helper failed: %v, want %v", err, errHelper)
	}
	closeWithin("failed helper")

	// A thousand runs of one tree, each closed after its first batch.
	ps.Filter = nil
	for i := 0; i < 1000; i++ {
		if err := ps.Open(small); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := ps.NextVec(); !ok || err != nil {
			t.Fatalf("run %d: ok=%v err=%v", i, ok, err)
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
	}
	closeWithin("a thousand runs")
}
