package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

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
	if err := tbl.Insert(row(1, "a", 10)); err != nil {
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
	if err := tbl.Insert(sqltypes.Row{sqltypes.NewInt(1)}); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity err = %v", err)
	}
	if err := tbl.Insert(sqltypes.Row{sqltypes.Null, sqltypes.NewString("x"), sqltypes.NewFloat(0)}); err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("notnull err = %v", err)
	}
	if err := tbl.Insert(row(1, "a", 10)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(1, "b", 20)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("dup err = %v", err)
	}
}

func TestInsertClonesRow(t *testing.T) {
	tbl := newTestTable(t)
	r := row(1, "a", 10)
	if err := tbl.Insert(r); err != nil {
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
	tbl.Insert(row(1, "a", 10))
	old, ok := tbl.Delete(sqltypes.Row{sqltypes.NewInt(1)})
	if !ok || old[1].Str() != "a" {
		t.Fatalf("Delete = %v, %v", old, ok)
	}
	if _, ok := tbl.Delete(sqltypes.Row{sqltypes.NewInt(1)}); ok {
		t.Fatal("second delete succeeded")
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
	tbl.Insert(row(1, "a", 10))
	old, err := tbl.Update(row(1, "a2", 99))
	if err != nil || old[1].Str() != "a" {
		t.Fatalf("Update = %v, %v", old, err)
	}
	got, _ := tbl.Get(sqltypes.Row{sqltypes.NewInt(1)})
	if got[1].Str() != "a2" || got[2].Float() != 99 {
		t.Fatalf("after update: %v", got)
	}
	if _, err := tbl.Update(row(2, "x", 0)); err == nil {
		t.Fatal("update of missing row succeeded")
	}
	if _, err := tbl.Update(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("bad arity update succeeded")
	}
	if msg := tbl.CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
}

func TestScanOrder(t *testing.T) {
	tbl := newTestTable(t)
	for _, id := range []int64{5, 1, 3, 2, 4} {
		tbl.Insert(row(id, fmt.Sprint(id), float64(10-id)))
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
		tbl.Insert(row(i, fmt.Sprint(i), float64(i)))
	}
	var got []float64
	err := tbl.ScanIndex("ix_bal",
		Bound{Vals: sqltypes.Row{sqltypes.NewFloat(10)}, Inclusive: true},
		Bound{Vals: sqltypes.Row{sqltypes.NewFloat(20)}, Inclusive: false},
		func(r sqltypes.Row) bool {
			got = append(got, r[2].Float())
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("index range [10,20) = %v", got)
	}
	// Exclusive lower bound.
	got = nil
	tbl.ScanIndex("ix_bal",
		Bound{Vals: sqltypes.Row{sqltypes.NewFloat(10)}, Inclusive: false},
		Bound{Vals: sqltypes.Row{sqltypes.NewFloat(12)}, Inclusive: true},
		func(r sqltypes.Row) bool { got = append(got, r[2].Float()); return true })
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("index range (10,12] = %v", got)
	}
	// Unbounded scan over clustered index.
	count := 0
	tbl.ScanIndex("pk_t", Bound{}, Bound{}, func(sqltypes.Row) bool { count++; return true })
	if count != 100 {
		t.Fatalf("clustered scan visited %d", count)
	}
	if err := tbl.ScanIndex("nope", Bound{}, Bound{}, func(sqltypes.Row) bool { return true }); err == nil {
		t.Fatal("scan of missing index succeeded")
	}
}

func TestScanIndexDuplicateKeys(t *testing.T) {
	tbl := newTestTable(t)
	// Many rows share bal=7; the index key is made unique by the PK suffix.
	for i := int64(1); i <= 20; i++ {
		tbl.Insert(row(i, "x", 7))
	}
	n := 0
	tbl.ScanIndex("ix_bal",
		Bound{Vals: sqltypes.Row{sqltypes.NewFloat(7)}, Inclusive: true},
		Bound{Vals: sqltypes.Row{sqltypes.NewFloat(7)}, Inclusive: true},
		func(sqltypes.Row) bool { n++; return true })
	if n != 20 {
		t.Fatalf("dup-key scan visited %d, want 20", n)
	}
}

func TestAddIndexBackfills(t *testing.T) {
	tbl := newTestTable(t)
	for i := int64(1); i <= 50; i++ {
		tbl.Insert(row(i, fmt.Sprint(i), float64(i%5)))
	}
	idx := &catalog.Index{Name: "ix_name", Table: "t", Columns: []string{"name"}}
	if err := tbl.AddIndex(idx); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddIndex(idx); err == nil {
		t.Fatal("duplicate AddIndex succeeded")
	}
	tbl.Def().Indexes = append(tbl.Def().Indexes, idx)
	n := 0
	tbl.ScanIndex("ix_name",
		Bound{Vals: sqltypes.Row{sqltypes.NewString("7")}, Inclusive: true},
		Bound{Vals: sqltypes.Row{sqltypes.NewString("7")}, Inclusive: true},
		func(sqltypes.Row) bool { n++; return true })
	if n != 1 {
		t.Fatalf("backfilled index scan found %d", n)
	}
	if msg := tbl.CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
}

func TestClear(t *testing.T) {
	tbl := newTestTable(t)
	for i := int64(1); i <= 10; i++ {
		tbl.Insert(row(i, "x", 1))
	}
	tbl.Clear()
	if tbl.Len() != 0 {
		t.Fatal("Clear left rows")
	}
	if msg := tbl.CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
	if err := tbl.Insert(row(1, "y", 2)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIndexConsistency property-tests that secondary indexes stay in
// sync with the heap under random insert/update/delete interleavings.
func TestQuickIndexConsistency(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
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
		c.AddTable(def)
		c.AddIndex(&catalog.Index{Name: "ix_bal", Table: "t", Columns: []string{"bal"}})
		c.AddIndex(&catalog.Index{Name: "ix_name", Table: "t", Columns: []string{"name", "bal"}})
		tbl := NewTable(c.Table("t"))
		live := map[int64]bool{}
		for op := 0; op < 600; op++ {
			id := int64(rng.Intn(100))
			switch rng.Intn(3) {
			case 0:
				err := tbl.Insert(row(id, fmt.Sprint(rng.Intn(10)), float64(rng.Intn(50))))
				if (err == nil) != !live[id] {
					return false
				}
				live[id] = true
			case 1:
				_, err := tbl.Update(row(id, fmt.Sprint(rng.Intn(10)), float64(rng.Intn(50))))
				if (err == nil) != live[id] {
					return false
				}
			case 2:
				_, ok := tbl.Delete(sqltypes.Row{sqltypes.NewInt(id)})
				if ok != live[id] {
					return false
				}
				delete(live, id)
			}
		}
		return tbl.CheckIndexConsistency() == "" && tbl.Len() == len(live)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSeekEqMatchesScanIndex checks the allocation-free equality seek against
// ScanIndex with equal inclusive bounds, on the clustered index (a key prefix
// of a composite primary key) and on a secondary index with duplicate keys.
func TestSeekEqMatchesScanIndex(t *testing.T) {
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
			if err := tbl.Insert(sqltypes.Row{sqltypes.NewInt(cust), sqltypes.NewInt(ord), tag}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pk := tbl.Def().IndexOn("cust").Name
	check := func(idx string, key sqltypes.Row) {
		t.Helper()
		var want []sqltypes.Row
		b := Bound{Vals: key, Inclusive: true}
		if err := tbl.ScanIndex(idx, b, b, func(r sqltypes.Row) bool { want = append(want, r); return true }); err != nil {
			t.Fatal(err)
		}
		got, err := tbl.SeekEq(idx, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %v: SeekEq found %d rows, ScanIndex %d", idx, key, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s %v: row %d = %v, want %v", idx, key, i, got[i], want[i])
			}
		}
	}
	for cust := int64(-1); cust <= 40; cust++ {
		check(pk, sqltypes.Row{sqltypes.NewInt(cust)})
		check(pk, sqltypes.Row{sqltypes.NewInt(cust), sqltypes.NewInt(2)})
	}
	for _, tag := range []string{"t0\xff", "t1\xff", "t2\xff", "t", "zz"} {
		check("ix_tag", sqltypes.Row{sqltypes.NewString(tag)})
	}
	if _, err := tbl.SeekEq("nope", sqltypes.Row{sqltypes.NewInt(1)}, nil); err == nil {
		t.Fatal("SeekEq on a missing index succeeded")
	}

	key := sqltypes.Row{sqltypes.NewInt(6)}
	buf := make([]sqltypes.Row, 0, 16)
	if n := testing.AllocsPerRun(100, func() { buf, _ = tbl.SeekEq(pk, key, buf[:0]) }); n != 0 {
		t.Errorf("clustered SeekEq allocates %v per seek, want 0", n)
	}
	if len(buf) != 6 {
		t.Fatalf("clustered SeekEq found %d rows, want 6", len(buf))
	}
	// A range scan encodes both ends on the stack: a scan whose bounds come
	// from a statement's parameters re-encodes them every run.
	rows := 0
	count := func(sqltypes.Row) bool { rows++; return true }
	lo, hi := Bound{Vals: key, Inclusive: true}, Bound{Vals: sqltypes.Row{sqltypes.NewInt(9)}}
	tag := Bound{Vals: sqltypes.Row{sqltypes.NewString("t1\xff")}, Inclusive: true}
	if n := testing.AllocsPerRun(100, func() {
		_ = tbl.ScanIndex(pk, lo, hi, count)
		_ = tbl.ScanIndex("ix_tag", tag, tag, count)
	}); n != 0 {
		t.Errorf("ScanIndex allocates %v per pair of scans, want 0", n)
	}
	if rows == 0 {
		t.Fatal("the scans found nothing")
	}
}
