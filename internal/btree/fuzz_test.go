package btree

import (
	"fmt"
	"slices"
	"testing"

	"relaxedcc/internal/sqltypes"
)

// FuzzBTree runs a byte string as up to 300 operations on both
// instantiations storage uses — a clustered tree whose leaves keep rows in
// column lanes, and the Tree[string] of a secondary index — against a sorted
// map: sets, deletes, gets, runs of keys inserted in order (the leaves an
// ordered load fills), and range reads resumed in windows of a given size.
// Every eighth operation, and after the last, both trees must hold the
// model's entries in order, every lane its rows' values and null bits,
// through the splits, borrows and merges the operations cause.
func FuzzBTree(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 1, 1, 0, 3, 9, 9})
	f.Add([]byte{4, 0, 200, 4, 1, 90, 1, 0, 0, 1, 0, 7, 5, 0, 3})
	f.Add([]byte{4, 3, 255, 6, 0, 50, 1, 2, 10, 4, 2, 255, 5, 1, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newModel()
		for n := 0; len(ops) >= 3 && n < 300; n++ {
			op, a, b := ops[0]%7, int(ops[1]), int(ops[2])
			ops = ops[3:]
			switch op {
			case 0, 1: // set
				m.set(a<<2|b&3, b)
			case 2: // delete
				m.delete(a<<2 | b&3)
			case 3: // get
				m.get(t, a<<2|b&3)
			case 4: // a run of b+1 keys from a's, in order
				for k := 0; k <= b; k++ {
					m.set(a<<2+k, k)
				}
			case 5: // delete a run
				for k := 0; k <= b; k++ {
					m.delete(a<<2 + k)
				}
			case 6: // a range read in windows of b%70+1 rows
				m.ranges(t, a<<2, (a+b)<<2, b%70+1)
			}
			if n%8 == 0 {
				m.check(t)
			}
		}
		m.check(t)
	})
}

type rowsTree = Base[sqltypes.Lanes, *sqltypes.Lanes]

// model is a sorted map beside the two trees it checks.
type model struct {
	rows *rowsTree
	strs *Tree[string]
	ref  map[string]sqltypes.Row
	keys []string     // ref's keys, sorted
	buf  sqltypes.Row // a row read back from a leaf
}

func newModel() *model {
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString, sqltypes.KindFloat}
	return &model{rows: NewOf(sqltypes.MakeLanes(kinds), 255), strs: New[string](), ref: map[string]sqltypes.Row{}}
}

// keys holds every key an operation can name: a<<2 plus a run of up to
// 256, and range ends up to (a+b)<<2.
var keys = func() []string {
	out := make([]string, 512<<2)
	for k := range out {
		out[k] = fmt.Sprintf("k%05d", k)
	}
	return out
}()

func key(k int) string { return keys[k] }

// row derives a row from v: NULLs and, now and then, an INT where a DOUBLE
// is declared.
func row(k, v int) sqltypes.Row {
	r := sqltypes.Row{sqltypes.NewInt(int64(k)), sqltypes.NewString(fmt.Sprint(v)), sqltypes.NewFloat(float64(v) / 4)}
	switch v % 9 {
	case 1:
		r[1] = sqltypes.Null
	case 2:
		r[2] = sqltypes.Null
	case 3:
		r[2] = sqltypes.NewInt(int64(v))
	}
	return r
}

func (m *model) set(k, v int) {
	r := row(k, v)
	leaf, i, _ := m.rows.Insert(key(k))
	leaf.Put(i, r)
	m.strs.Set(key(k), r[1].String())
	if _, ok := m.ref[key(k)]; !ok {
		at, _ := slices.BinarySearch(m.keys, key(k))
		m.keys = slices.Insert(m.keys, at, key(k))
	}
	m.ref[key(k)] = r
}

func (m *model) delete(k int) {
	m.rows.Delete(key(k))
	m.strs.Delete(key(k))
	if at, ok := slices.BinarySearch(m.keys, key(k)); ok {
		m.keys = slices.Delete(m.keys, at, at+1)
	}
	delete(m.ref, key(k))
}

func (m *model) get(t *testing.T, k int) {
	want, ok := m.ref[key(k)]
	leaf, i, found := m.rows.Find(key(k))
	s, sok := get(m.strs, key(k))
	if found != ok || sok != ok {
		t.Fatalf("get %d: found %v %v, want %v", k, found, sok, ok)
	}
	if ok && (!sameRow(leaf.AppendRow(nil, i), want) || s != want[1].String()) {
		t.Fatalf("get %d = %v %q, want %v", k, leaf.AppendRow(nil, i), s, want)
	}
}

func sameRow(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if a[c] != b[c] { // the kind as written, not only the value
			return false
		}
	}
	return true
}

// check compares both trees, leaf window by leaf window, with the model.
func (m *model) check(t *testing.T) {
	t.Helper()
	for _, msg := range []string{m.rows.CheckInvariants(), m.strs.CheckInvariants()} {
		if msg != "" {
			t.Fatal(msg)
		}
	}
	keys := m.keys
	if m.rows.Len() != len(keys) || m.strs.Len() != len(keys) {
		t.Fatalf("lengths %d, %d, want %d", m.rows.Len(), m.strs.Len(), len(keys))
	}
	n := 0
	m.rows.Walk("", "", func(ks []string, leaf *sqltypes.Lanes, i, j int) bool {
		for c := 0; c < leaf.Width(); c++ {
			if nulls := leaf.Col(c).Null; nulls != nil && len(nulls) != leaf.Len() {
				t.Fatalf("column %d has %d null bits for %d rows", c, len(nulls), leaf.Len())
			}
		}
		for ; i < j; i++ {
			want := m.ref[keys[n]]
			if m.buf = leaf.AppendRow(m.buf[:0], i); ks[i] != keys[n] || !sameRow(m.buf, want) {
				t.Fatalf("entry %d: %s %v, want %s %v", n, ks[i], leaf.AppendRow(nil, i), keys[n], want)
			}
			for c := range want { // a typed lane's null bits (the Any fallback holds NULL values)
				if lane := leaf.Col(c); lane.Kind != sqltypes.KindNull && lane.IsNull(i) != want[c].IsNull() {
					t.Fatalf("entry %d column %d: null bit %v", n, c, leaf.Col(c).IsNull(i))
				}
			}
			n++
		}
		return true
	})
	n = 0
	m.strs.Ascend(func(k, v string) bool {
		if k != keys[n] || v != m.ref[k][1].String() {
			t.Fatalf("index entry %d: %s %q", n, k, v)
		}
		n++
		return true
	})
}

// ranges reads [lo, hi) from both trees in windows of at most limit rows,
// each resumed at the key the last one stopped at — the clustered tree the
// way storage steps a scan, the index through AppendRange — and compares
// them with the model's slice of the range.
func (m *model) ranges(t *testing.T, lo, hi, limit int) {
	t.Helper()
	var want []string
	for _, k := range m.keys {
		if k >= key(lo) && k < key(hi) {
			want = append(want, k)
		}
	}
	var got []string
	for start, more := key(lo), true; more; {
		more = false
		read := 0
		m.rows.Walk(start, key(hi), func(ks []string, leaf *sqltypes.Lanes, i, j int) bool {
			if read == limit {
				start, more = ks[i], true
				return false
			}
			take := min(j-i, limit-read)
			for r := i; r < i+take; r++ {
				if m.buf = leaf.AppendRow(m.buf[:0], r); !sameRow(m.buf, m.ref[ks[r]]) {
					t.Fatalf("range row %s = %v", ks[r], leaf.AppendRow(nil, r))
				}
				got = append(got, ks[r])
			}
			if read += take; i+take < j {
				start, more = ks[i+take], true
				return false
			}
			return true
		})
	}
	var vals []string
	for cursor, more := key(lo), true; more; {
		before := len(vals)
		vals, cursor, more = m.strs.AppendRange(vals, cursor, key(hi), limit)
		if len(vals)-before > limit || more && len(vals)-before != limit {
			t.Fatalf("AppendRange window of %d rows, limit %d", len(vals)-before, limit)
		}
	}
	if len(got) != len(want) || len(vals) != len(want) {
		t.Fatalf("range [%d, %d): %d and %d rows, want %d", lo, hi, len(got), len(vals), len(want))
	}
	for i := range want {
		if got[i] != want[i] || vals[i] != m.ref[want[i]][1].String() {
			t.Fatalf("range [%d, %d) row %d: %s %q, want %s", lo, hi, i, got[i], vals[i], want[i])
		}
	}
}
