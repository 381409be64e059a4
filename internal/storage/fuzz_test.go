package storage_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/txn"
)

// FuzzTable runs a byte string as up to 200 Replace calls on a table with
// two secondary indexes, against a map from key to row: inserts, deletes,
// in-place updates, key moves, runs of inserts that split leaves, and calls
// that must fail and change nothing — a delete or move of an absent row, an
// insert or move onto a taken key, a NULL in the NOT NULL key, a row of the
// wrong arity — and units of such calls made through txn.Apply. After every
// call the rows must be the model's in key order and every index consistent;
// after every call that succeeds, the swapped call must restore the rows and
// every index exactly, and a unit with a call that fails must leave them as
// they were before it.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 10, 0, 2, 0, 20, 3, 1, 0, 30, 4, 2, 3, 40, 2, 3, 0, 0})
	f.Add([]byte{7, 0, 0, 200, 4, 5, 70, 3, 4, 5, 6, 8, 2, 90, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tbl := fuzzTable(t)
		model := map[int64]sqltypes.Row{}
		for n := 0; len(ops) >= 4 && n < 200; n++ {
			op, a, b, v := ops[0]%9, int64(ops[1])*4, int64(ops[2])*4, ops[3]
			ops = ops[4:]
			switch op {
			case 7: // a run of v%64+1 inserts from a
				for id := a; id <= a+int64(v%64); id++ {
					r := fuzzRow(id, v)
					if err := tbl.Replace(nil, r); (err == nil) == (model[id] != nil) {
						t.Fatalf("insert %v onto %v: %v", r, model[id], err)
					} else if err == nil {
						model[id] = r
					}
				}
			case 8: // a unit of the next v%4+2 calls of kinds 0-6
				var unit [][2]sqltypes.Row
				after, fails := maps.Clone(model), -1
				for ; len(unit) < int(v%4)+2 && len(ops) >= 4; ops = ops[4:] {
					old, new := call(after, ops[0]%7, int64(ops[1])*4, int64(ops[2])*4, ops[3])
					if fails < 0 && succeeds(after, old, new) {
						follow(after, old, new)
					} else if fails < 0 {
						fails = len(unit)
					}
					unit = append(unit, [2]sqltypes.Row{old, new})
				}
				before := dump(t, tbl)
				err := txn.Apply(len(unit), func(i int) (*storage.Table, sqltypes.Row, sqltypes.Row) { return tbl, unit[i][0], unit[i][1] })
				if (err == nil) != (fails < 0) {
					t.Fatalf("unit %v: %v; the model says call %d fails", unit, err, fails)
				}
				if err == nil {
					model = after
				} else if got := dump(t, tbl); got != before {
					t.Fatalf("unit %v failed and left\n%s\nwas\n%s", unit, got, before)
				}
			default:
				old, new := call(model, op, a, b, v)
				replace(t, tbl, model, old, new)
			}
			checkModel(t, tbl, model)
		}
	})
}

// call is the Replace call of kind op (0-6) over keys a and b and the values v
// picks, against the rows model holds.
func call(model map[int64]sqltypes.Row, op byte, a, b int64, v byte) (old, new sqltypes.Row) {
	// stored is the row at a key, or one the table lacks.
	stored := func(id int64) sqltypes.Row {
		if r, ok := model[id]; ok {
			return r
		}
		return fuzzRow(id, v)
	}
	switch op {
	case 2: // delete
		return stored(a), nil
	case 3: // in place
		return stored(a), fuzzRow(a, v)
	case 4: // key move
		return stored(a), fuzzRow(b, v)
	case 5: // a NULL key, inserted or moved onto
		if v&1 == 1 {
			old = stored(b)
		}
		new = fuzzRow(a, v)
		new[0] = sqltypes.Null
		return old, new
	case 6: // a side of the wrong arity
		old, new = stored(a), fuzzRow(b, v)
		if v&1 == 1 {
			return old[:2], new
		}
		return old, append(new, sqltypes.Null)
	}
	return nil, fuzzRow(a, v) // insert
}

// fuzzTable is t(id BIGINT NOT NULL PRIMARY KEY, name VARCHAR, bal DOUBLE)
// with an index on bal and one on (name, bal).
func fuzzTable(t *testing.T) *storage.Table {
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
	for _, err := range []error{
		c.AddTable(def),
		c.AddIndex(&catalog.Index{Name: "ix_bal", Table: "t", Columns: []string{"bal"}}),
		c.AddIndex(&catalog.Index{Name: "ix_name", Table: "t", Columns: []string{"name", "bal"}}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return storage.NewTable(c.Table("t"))
}

// fuzzRow is the row at key id whose other values v picks, a NULL name among
// them.
func fuzzRow(id int64, v byte) sqltypes.Row {
	name := sqltypes.Null
	if v%5 != 4 {
		name = sqltypes.NewString(fmt.Sprintf("n%d", v%5))
	}
	return sqltypes.Row{sqltypes.NewInt(id), name, sqltypes.NewFloat(float64(v / 5 % 7))}
}

// succeeds reports whether Replace(old, new) must succeed on a table holding
// model's rows.
func succeeds(model map[int64]sqltypes.Row, old, new sqltypes.Row) bool {
	fits := func(r sqltypes.Row) bool { return r == nil || len(r) == 3 && !r[0].IsNull() }
	at := func(r sqltypes.Row) sqltypes.Row {
		if r == nil {
			return nil
		}
		return model[r[0].Int()]
	}
	return fits(old) && fits(new) &&
		(old == nil || at(old) != nil) &&
		(new == nil || at(new) == nil || old != nil && new[0].Equal(old[0]))
}

// follow makes Replace(old, new), which succeeded, in the model.
func follow(model map[int64]sqltypes.Row, old, new sqltypes.Row) {
	if old != nil {
		delete(model, old[0].Int())
	}
	if new != nil {
		model[new[0].Int()] = new
	}
}

// replace runs tbl.Replace(old, new) where the model says whether it must
// succeed, follows it in the model, and holds a success's undo to restoring
// the table exactly before it redoes it.
func replace(t *testing.T, tbl *storage.Table, model map[int64]sqltypes.Row, old, new sqltypes.Row) {
	t.Helper()
	ok := succeeds(model, old, new)
	before := dump(t, tbl)
	err := tbl.Replace(old, new)
	if (err == nil) != ok {
		t.Fatalf("Replace(%v, %v): %v; the model says it must succeed: %v", old, new, err, ok)
	}
	if err != nil {
		return
	}
	if err := tbl.Replace(new, old); err != nil {
		t.Fatalf("undo of Replace(%v, %v): %v", old, new, err)
	}
	if got := dump(t, tbl); got != before {
		t.Fatalf("undo of Replace(%v, %v) left\n%s\nwas\n%s", old, new, got, before)
	}
	if err := tbl.Replace(old, new); err != nil {
		t.Fatalf("redo of Replace(%v, %v): %v", old, new, err)
	}
	follow(model, old, new)
}

// checkModel holds the table's rows, in key order, to the model's, and its
// indexes to its rows.
func checkModel(t *testing.T, tbl *storage.Table, model map[int64]sqltypes.Row) {
	t.Helper()
	var want, got strings.Builder
	keys := make([]int64, 0, len(model))
	for id := range model {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	for _, id := range keys {
		want.WriteString(model[id].String())
	}
	tbl.Scan(func(r sqltypes.Row) bool {
		got.WriteString(r.String())
		return true
	})
	if got.String() != want.String() {
		t.Fatalf("rows\n%s\nmodel\n%s", got.String(), want.String())
	}
	if msg := tbl.CheckIndexConsistency(); msg != "" {
		t.Fatal(msg)
	}
}

// dump renders the table's rows and each secondary index's, in their orders.
func dump(t *testing.T, tbl *storage.Table) string {
	t.Helper()
	var b strings.Builder
	tbl.Scan(func(r sqltypes.Row) bool {
		b.WriteString(r.String())
		return true
	})
	for _, idx := range []string{"ix_bal", "ix_name"} {
		l := sqltypes.MakeLanes([]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString, sqltypes.KindFloat})
		if err := tbl.ScanIndex(idx, storage.Bound{}, storage.Bound{}, &l); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "\n%s:", idx)
		for i := 0; i < l.Len(); i++ {
			b.WriteString(l.AppendRow(nil, i).String())
		}
	}
	return b.String()
}
