package exec

import (
	"fmt"
	"runtime"
	"testing"

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
		if err := tbl.Insert(row); err != nil {
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
