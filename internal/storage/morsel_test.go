package storage

import (
	"fmt"
	"testing"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
)

func morselTable(t *testing.T, n int) *Table {
	t.Helper()
	c := catalog.New()
	def := &catalog.Table{
		Name: "m",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt, NotNull: true},
			{Name: "v", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"id"},
	}
	if err := c.AddTable(def); err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(c.Table("m"))
	for i := 1; i <= n; i++ {
		row := sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprint(i))}
		if err := tbl.Replace(nil, row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func collectMorsels(t *testing.T, tbl *Table, ms []Morsel) []sqltypes.Row {
	var out []sqltypes.Row
	for _, m := range ms {
		var c Cursor
		c.Keys(m.Start, m.End)
		out = append(out, walk(t, tbl, &c, 7)...)
	}
	return out
}

// walk collects the rows of an armed cursor, limit rows per step.
func walk(t *testing.T, tbl *Table, c *Cursor, limit int) []sqltypes.Row {
	t.Helper()
	var out []sqltypes.Row
	for !c.Done() {
		if _, err := tbl.Step(c, limit, func(view *sqltypes.ColBatch) (int, error) {
			for i := 0; i < view.Len(); i++ {
				out = append(out, view.Row(i).Clone())
			}
			return view.Len(), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// lanesRows materializes every row of l.
func lanesRows(l *sqltypes.Lanes) []sqltypes.Row {
	out := make([]sqltypes.Row, l.Len())
	for i := range out {
		out[i] = l.AppendRow(nil, i)
	}
	return out
}

// TestMorselsCoverFullRange partitions the whole table and checks the
// morsels are contiguous, half-open and jointly equivalent to a full scan.
func TestMorselsCoverFullRange(t *testing.T) {
	const n = 2000
	tbl := morselTable(t, n)
	var want []sqltypes.Row
	tbl.Scan(func(r sqltypes.Row) bool { want = append(want, r.Clone()); return true })

	for _, parts := range []int{1, 4, 16, 64} {
		ms := tbl.Morsels(Bound{}, Bound{}, parts)
		if len(ms) == 0 {
			t.Fatalf("parts=%d: no morsels", parts)
		}
		if ms[0].Start != "" || ms[len(ms)-1].End != "" {
			t.Fatalf("parts=%d: outer bounds not open (%q, %q)", parts, ms[0].Start, ms[len(ms)-1].End)
		}
		for i := 0; i+1 < len(ms); i++ {
			if ms[i].End != ms[i+1].Start {
				t.Fatalf("parts=%d: gap between morsel %d and %d (%q vs %q)",
					parts, i, i+1, ms[i].End, ms[i+1].Start)
			}
			if ms[i].End == "" {
				t.Fatalf("parts=%d: interior morsel %d unbounded", parts, i)
			}
		}
		got := collectMorsels(t, tbl, ms)
		if len(got) != len(want) {
			t.Fatalf("parts=%d: morsel union = %d rows, scan = %d", parts, len(got), len(want))
		}
		// Ascending within and across contiguous morsels means the union is
		// in clustered order: compare positionally.
		for i := range got {
			if got[i][0].Int() != want[i][0].Int() {
				t.Fatalf("parts=%d: row %d = %v, want %v", parts, i, got[i], want[i])
			}
		}
	}
}

// TestMorselsRespectBounds compares the union of bounded morsels against the
// primary-index range scan.
func TestMorselsRespectBounds(t *testing.T) {
	tbl := morselTable(t, 1500)
	lo := Bound{Vals: sqltypes.Row{sqltypes.NewInt(300)}, Inclusive: true}
	hi := Bound{Vals: sqltypes.Row{sqltypes.NewInt(900)}, Inclusive: true}

	var l sqltypes.Lanes
	if err := tbl.ScanIndex("pk_m", lo, hi, &l); err != nil {
		t.Fatal(err)
	}
	want := lanesRows(&l)
	if len(want) != 601 {
		t.Fatalf("range scan = %d rows", len(want))
	}

	ms := tbl.Morsels(lo, hi, 8)
	got := collectMorsels(t, tbl, ms)
	if len(got) != len(want) {
		t.Fatalf("morsel union = %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0].Int() != want[i][0].Int() {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMorselsSmallTable: tiny tables still yield at least one morsel and
// lose no rows however many parts are requested.
func TestMorselsSmallTable(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		tbl := morselTable(t, n)
		ms := tbl.Morsels(Bound{}, Bound{}, 8)
		if len(ms) == 0 {
			t.Fatalf("n=%d: no morsels", n)
		}
		if got := collectMorsels(t, tbl, ms); len(got) != n {
			t.Fatalf("n=%d: morsel union = %d rows", n, len(got))
		}
	}
}

// TestStepResumesWhereVisitStopped steps a clustered range with every
// combination of a row limit per step and a visitor that takes only part of
// a leaf window, as a reader whose buffer fills up does: the rows read are
// exactly the range's, each once, in key order.
func TestStepResumesWhereVisitStopped(t *testing.T) {
	tbl := morselTable(t, 1000)
	lo := Bound{Vals: sqltypes.Row{sqltypes.NewInt(10)}, Inclusive: false}
	hi := Bound{Vals: sqltypes.Row{sqltypes.NewInt(900)}, Inclusive: true}
	var l sqltypes.Lanes
	if err := tbl.ScanIndex("pk_m", lo, hi, &l); err != nil {
		t.Fatal(err)
	}
	want := lanesRows(&l)
	for _, limit := range []int{1, 3, 255, 256, 2000} {
		for _, take := range []int{1, 2, 7, 1 << 30} {
			var c Cursor
			c.Bounds(lo, hi)
			var got []sqltypes.Row
			total := 0
			for !c.Done() {
				read, err := tbl.Step(&c, limit, func(view *sqltypes.ColBatch) (int, error) {
					k := min(view.Len(), take)
					for i := 0; i < k; i++ {
						got = append(got, view.Row(i).Clone())
					}
					return k, nil
				})
				if err != nil || read > limit {
					t.Fatalf("limit %d take %d: step read %d, %v", limit, take, read, err)
				}
				total += read
			}
			if len(got) != len(want) || total != len(want) {
				t.Fatalf("limit %d take %d: %d rows, %d read, want %d", limit, take, len(got), total, len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("limit %d take %d: row %d = %v, want %v", limit, take, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStepFindsAWholeKey: bounds that pin every primary-key column find
// their row, or none, and a step over them allocates nothing.
func TestStepFindsAWholeKey(t *testing.T) {
	tbl := morselTable(t, 600)
	var c Cursor
	rows := 0
	visit := func(view *sqltypes.ColBatch) (int, error) {
		rows += view.Len()
		return view.Len(), nil
	}
	for _, k := range []int64{0, 1, 255, 256, 600, 601} {
		key := Bound{Vals: sqltypes.Row{sqltypes.NewInt(k)}, Inclusive: true}
		c.Bounds(key, key)
		rows = 0
		if _, err := tbl.Step(&c, 10, visit); err != nil || !c.Done() {
			t.Fatalf("key %d: %v, done %v", k, err, c.Done())
		}
		if want := btoi(k >= 1 && k <= 600); rows != want {
			t.Fatalf("key %d: %d rows, want %d", k, rows, want)
		}
	}
	key := Bound{Vals: sqltypes.Row{sqltypes.NewInt(77)}, Inclusive: true}
	if n := testing.AllocsPerRun(100, func() {
		c.Bounds(key, key)
		tbl.Step(&c, 10, visit)
	}); n != 0 {
		t.Errorf("a point step allocates %v, want 0", n)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
