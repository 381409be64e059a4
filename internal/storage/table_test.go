package storage

import (
	"fmt"
	"strings"
	"testing"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
)

func newTestTable(t *testing.T) *Table {
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
	if err := c.AddIndex(&catalog.Index{Name: "ix_bal", Table: "t", Columns: []string{"bal"}}); err != nil {
		t.Fatal(err)
	}
	return NewTable(c.Table("t"))
}

func row(id int64, name string, bal float64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewString(name), sqltypes.NewFloat(bal)}
}

func TestInsertGet(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.Replace(nil, row(1, "a", 10)); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get(sqltypes.Row{sqltypes.NewInt(1)})
	if !ok || got[1].Str() != "a" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := tbl.Get(sqltypes.Row{sqltypes.NewInt(2)}); ok {
		t.Fatal("Get of missing row")
	}
	if tbl.Len() != 1 {
		t.Fatal("Len")
	}
}

func TestInsertErrors(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.Replace(nil, sqltypes.Row{sqltypes.NewInt(1)}); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity err = %v", err)
	}
	if err := tbl.Replace(nil, sqltypes.Row{sqltypes.Null, sqltypes.NewString("x"), sqltypes.NewFloat(0)}); err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("notnull err = %v", err)
	}
	if err := tbl.Replace(nil, row(1, "a", 10)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Replace(nil, row(1, "b", 20)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("dup err = %v", err)
	}
}

func TestInsertClonesRow(t *testing.T) {
	tbl := newTestTable(t)
	r := row(1, "a", 10)
	if err := tbl.Replace(nil, r); err != nil {
		t.Fatal(err)
	}
	r[1] = sqltypes.NewString("mutated")
	got, _ := tbl.Get(sqltypes.Row{sqltypes.NewInt(1)})
	if got[1].Str() != "a" {
		t.Fatal("stored row aliases caller's slice")
	}
}

func TestDelete(t *testing.T) {
	tbl := newTestTable(t)
	tbl.Replace(nil, row(1, "a", 10))
	if err := tbl.Replace(row(1, "a", 10), nil); err != nil {
		t.Fatalf("delete of a stored row: %v", err)
	}
	if err := tbl.Replace(row(1, "a", 10), nil); err == nil || !strings.Contains(err.Error(), "no row") {
		t.Fatalf("second delete: %v", err)
	}
	if tbl.Len() != 0 {
		t.Fatal("Len after delete")
	}
	if msg := tbl.CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
}

func TestUpdate(t *testing.T) {
	tbl := newTestTable(t)
	tbl.Replace(nil, row(1, "a", 10))
	if err := tbl.Replace(row(1, "a", 10), row(1, "a2", 99)); err != nil {
		t.Fatalf("update: %v", err)
	}
	got, _ := tbl.Get(sqltypes.Row{sqltypes.NewInt(1)})
	if got[1].Str() != "a2" || got[2].Float() != 99 {
		t.Fatalf("after update: %v", got)
	}
	if err := tbl.Replace(row(2, "x", 0), row(2, "x", 1)); err == nil {
		t.Fatal("update of missing row succeeded")
	}
	if err := tbl.Replace(row(1, "a2", 99), sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("bad arity update succeeded")
	}
	// A key move is a delete and an insert; onto a taken key it is nothing.
	tbl.Replace(nil, row(3, "c", 30))
	if err := tbl.Replace(row(1, "a2", 99), row(2, "b", 20)); err != nil {
		t.Fatalf("key move: %v", err)
	}
	if err := tbl.Replace(row(2, "b", 20), row(3, "b", 20)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("move onto a taken key: %v", err)
	}
	var ids []int64
	tbl.Scan(func(r sqltypes.Row) bool {
		ids = append(ids, r[0].Int())
		return true
	})
	if fmt.Sprint(ids) != "[2 3]" {
		t.Fatalf("keys after moves: %v", ids)
	}
	if msg := tbl.CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
}

func TestScanOrder(t *testing.T) {
	tbl := newTestTable(t)
	for _, id := range []int64{5, 1, 3, 2, 4} {
		tbl.Replace(nil, row(id, fmt.Sprint(id), float64(10-id)))
	}
	var ids []int64
	tbl.Scan(func(r sqltypes.Row) bool {
		ids = append(ids, r[0].Int())
		return true
	})
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("scan order = %v", ids)
		}
	}
	// Early stop.
	n := 0
	tbl.Scan(func(sqltypes.Row) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestScanIndexRange(t *testing.T) {
	tbl := newTestTable(t)
	for i := int64(1); i <= 100; i++ {
		tbl.Replace(nil, row(i, fmt.Sprint(i), float64(i)))
	}
	bals := func(lo, hi Bound) []float64 {
		t.Helper()
		var l sqltypes.Lanes
		if err := tbl.ScanIndex("ix_bal", lo, hi, &l); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, r := range lanesRows(&l) {
			out = append(out, r[2].Float())
		}
		return out
	}
	got := bals(Bound{Vals: sqltypes.Row{sqltypes.NewFloat(10)}, Inclusive: true},
		Bound{Vals: sqltypes.Row{sqltypes.NewFloat(20)}, Inclusive: false})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("index range [10,20) = %v", got)
	}
	// Exclusive lower bound.
	got = bals(Bound{Vals: sqltypes.Row{sqltypes.NewFloat(10)}, Inclusive: false},
		Bound{Vals: sqltypes.Row{sqltypes.NewFloat(12)}, Inclusive: true})
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("index range (10,12] = %v", got)
	}
	// Unbounded scan over clustered index.
	var all sqltypes.Lanes
	tbl.ScanIndex("pk_t", Bound{}, Bound{}, &all)
	if all.Len() != 100 {
		t.Fatalf("clustered scan visited %d", all.Len())
	}
	if err := tbl.ScanIndex("nope", Bound{}, Bound{}, &all); err == nil {
		t.Fatal("scan of missing index succeeded")
	}
}

func TestScanIndexDuplicateKeys(t *testing.T) {
	tbl := newTestTable(t)
	// Many rows share bal=7; the index key is made unique by the PK suffix.
	for i := int64(1); i <= 20; i++ {
		tbl.Replace(nil, row(i, "x", 7))
	}
	seven := Bound{Vals: sqltypes.Row{sqltypes.NewFloat(7)}, Inclusive: true}
	var l sqltypes.Lanes
	tbl.ScanIndex("ix_bal", seven, seven, &l)
	if l.Len() != 20 {
		t.Fatalf("dup-key scan visited %d, want 20", l.Len())
	}
}

func TestAddIndexBackfills(t *testing.T) {
	tbl := newTestTable(t)
	for i := int64(1); i <= 50; i++ {
		tbl.Replace(nil, row(i, fmt.Sprint(i), float64(i%5)))
	}
	idx := &catalog.Index{Name: "ix_name", Table: "t", Columns: []string{"name"}}
	if err := tbl.AddIndex(idx); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddIndex(idx); err == nil {
		t.Fatal("duplicate AddIndex succeeded")
	}
	tbl.Def().Indexes = append(tbl.Def().Indexes, idx)
	seven := Bound{Vals: sqltypes.Row{sqltypes.NewString("7")}, Inclusive: true}
	var l sqltypes.Lanes
	tbl.ScanIndex("ix_name", seven, seven, &l)
	if l.Len() != 1 {
		t.Fatalf("backfilled index scan found %d", l.Len())
	}
	if msg := tbl.CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
}

func TestClear(t *testing.T) {
	tbl := newTestTable(t)
	for i := int64(1); i <= 10; i++ {
		tbl.Replace(nil, row(i, "x", 1))
	}
	tbl.Clear()
	if tbl.Len() != 0 {
		t.Fatal("Clear left rows")
	}
	if msg := tbl.CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
	if err := tbl.Replace(nil, row(1, "y", 2)); err != nil {
		t.Fatal(err)
	}
}

// TestScanIndexEqualitySeek checks ScanIndex with equal inclusive bounds —
// the seek of an index nested-loop join — against a filtered full scan, on
// the clustered index (a key prefix of a composite primary key) and on a
// secondary index with duplicate keys, and that a seek into reused lanes
// allocates nothing.
func TestScanIndexEqualitySeek(t *testing.T) {
	c := catalog.New()
	def := &catalog.Table{
		Name: "o",
		Columns: []catalog.Column{
			{Name: "cust", Type: sqltypes.KindInt, NotNull: true},
			{Name: "ord", Type: sqltypes.KindInt, NotNull: true},
			{Name: "tag", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"cust", "ord"},
	}
	if err := c.AddTable(def); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&catalog.Index{Name: "ix_tag", Table: "o", Columns: []string{"tag"}}); err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(c.Table("o"))
	for cust := int64(0); cust < 40; cust++ {
		for ord := int64(0); ord < cust%7; ord++ {
			tag := sqltypes.NewString(fmt.Sprintf("t%d\xff", ord%3))
			if err := tbl.Replace(nil, sqltypes.Row{sqltypes.NewInt(cust), sqltypes.NewInt(ord), tag}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pk := tbl.Def().IndexOn("cust").Name
	check := func(idx string, cols []int, key sqltypes.Row) {
		t.Helper()
		var want []sqltypes.Row
		tbl.Scan(func(r sqltypes.Row) bool {
			for k, c := range cols {
				if !r[c].Equal(key[k]) {
					return true
				}
			}
			want = append(want, r.Clone())
			return true
		})
		var l sqltypes.Lanes
		b := Bound{Vals: key, Inclusive: true}
		if err := tbl.ScanIndex(idx, b, b, &l); err != nil {
			t.Fatal(err)
		}
		got := lanesRows(&l)
		if len(got) != len(want) {
			t.Fatalf("%s %v: the seek found %d rows, the scan %d", idx, key, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s %v: row %d = %v, want %v", idx, key, i, got[i], want[i])
			}
		}
	}
	for cust := int64(-1); cust <= 40; cust++ {
		check(pk, []int{0}, sqltypes.Row{sqltypes.NewInt(cust)})
		check(pk, []int{0, 1}, sqltypes.Row{sqltypes.NewInt(cust), sqltypes.NewInt(2)})
	}
	for _, tag := range []string{"t0\xff", "t1\xff", "t2\xff", "t", "zz"} {
		check("ix_tag", []int{2}, sqltypes.Row{sqltypes.NewString(tag)})
	}

	// Both ends are encoded on the stack and the lanes keep their arrays: a
	// seek whose key comes from a statement's parameters re-encodes it every
	// run and allocates nothing.
	var l sqltypes.Lanes
	key := Bound{Vals: sqltypes.Row{sqltypes.NewInt(6)}, Inclusive: true}
	tag := Bound{Vals: sqltypes.Row{sqltypes.NewString("t1\xff")}, Inclusive: true}
	seek := func() {
		l.Reset()
		_ = tbl.ScanIndex(pk, key, key, &l)
		_ = tbl.ScanIndex("ix_tag", tag, tag, &l)
	}
	seek()
	found := l.Len()
	if n := testing.AllocsPerRun(100, seek); n != 0 {
		t.Errorf("a pair of seeks allocates %v, want 0", n)
	}
	if found <= 6 || l.Len() != found {
		t.Fatalf("the seeks found %d rows, then %d", found, l.Len())
	}
}

// TestScanIndexDanglingEntryIsAnError corrupts a secondary index with an
// entry whose row does not exist: resolving it is an error the scan
// returns, not a process exit.
func TestScanIndexDanglingEntryIsAnError(t *testing.T) {
	tbl := newTestTable(t)
	for i := int64(1); i <= 3; i++ {
		tbl.Replace(nil, row(i, "x", float64(i)))
	}
	missing := sqltypes.Key(sqltypes.NewInt(99))
	tbl.secondary["ix_bal"].Set(rowKey(tbl.secOrds["ix_bal"], row(99, "x", 2), missing), missing)
	var l sqltypes.Lanes
	err := tbl.ScanIndex("ix_bal", Bound{}, Bound{}, &l)
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("ScanIndex over a dangling entry: %v", err)
	}
	if msg := tbl.CheckIndexConsistency(); msg == "" {
		t.Fatal("CheckIndexConsistency missed the dangling entry")
	}
}
