// Package storage implements the in-memory row store used by both the
// back-end server and the cache's materialized views: a clustered B+-tree on
// the primary key plus any number of secondary indexes.
//
// The clustered tree stores no row objects. Each leaf keeps its rows in
// typed column lanes (sqltypes.Lanes): a scan filters a leaf where it lies
// and copies out only the columns of the rows that pass (Step), and a row is
// assembled only where one is asked for — Peek writes it into the caller's
// buffer, Get returns a copy, Scan hands its callback one that lasts the
// call.
//
// Tables are safe for concurrent use; a table-level RWMutex, the latch,
// stands in for the paper's strict-2PL assumption (the paper assumes writers
// are serialized on the master; readers see committed states only). One
// rule keeps the leaves private: nothing outside this package keeps a
// pointer into a leaf. Readers copy what they need under the read latch — a
// row, the survivors of a leaf window, an index range — and a batch a reader
// is handed over a leaf (Step's visit) is valid only during the call.
// Writers update the lanes in place under the write latch, with no
// copy-on-write.
package storage

import (
	"fmt"
	"sync"

	"relaxedcc/internal/btree"
	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
)

// Table stores rows for one base table or materialized view.
type Table struct {
	def *catalog.Table

	mu        sync.RWMutex
	primary   *rows                          // Key(pk) -> row, in the leaf's lanes
	secondary map[string]*btree.Tree[string] // index name -> Key(idx cols..., pk cols...) -> Key(pk)
	secOrds   map[string][]int               // index name -> key-column ordinals
	pkOrds    []int
}

// rows is the clustered tree: leaves keep their rows in column lanes.
type rows = btree.Base[sqltypes.Lanes, *sqltypes.Lanes]

// leafRows is how many rows a clustered leaf holds. A scan narrows and
// copies a leaf window at a time, so what a window costs beyond its rows is
// spread over up to this many; an insert or delete shifts the rest of its
// leaf's lanes.
const leafRows = 255

// newRows returns an empty clustered tree for def, its lanes typed as the
// columns are declared.
func newRows(def *catalog.Table) *rows {
	kinds := make([]sqltypes.Kind, len(def.Columns))
	for i, c := range def.Columns {
		kinds[i] = c.Type
	}
	return btree.NewOf(sqltypes.MakeLanes(kinds), leafRows)
}

// NewTable creates an empty table for the given definition.
func NewTable(def *catalog.Table) *Table {
	t := &Table{
		def:       def,
		primary:   newRows(def),
		secondary: map[string]*btree.Tree[string]{},
		secOrds:   map[string][]int{},
		pkOrds:    def.PKOrdinals(),
	}
	for _, idx := range def.Indexes {
		if !idx.Clustered {
			t.secondary[idx.Name] = btree.New[string]()
			ords, err := t.ordinals(idx.Columns)
			if err != nil {
				panic(err) // definition validated by the catalog
			}
			t.secOrds[idx.Name] = ords
		}
	}
	return t
}

// Def returns the table definition.
func (t *Table) Def() *catalog.Table { return t.def }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.primary.Len()
}

// AddIndex creates and populates a new secondary index.
func (t *Table) AddIndex(idx *catalog.Index) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.secondary[idx.Name]; ok {
		return fmt.Errorf("storage: index %s already exists on %s", idx.Name, t.def.Name)
	}
	ords, err := t.ordinals(idx.Columns)
	if err != nil {
		return err
	}
	tree := btree.New[string]()
	t.primary.Walk("", "", func(keys []string, leaf *sqltypes.Lanes, i, j int) bool {
		for ; i < j; i++ {
			tree.Set(laneKey(leaf, i, ords, keys[i]), keys[i])
		}
		return true
	})
	t.secondary[idx.Name] = tree
	t.secOrds[idx.Name] = ords
	return nil
}

func (t *Table) ordinals(cols []string) ([]int, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		o := t.def.ColumnIndex(c)
		if o < 0 {
			return nil, fmt.Errorf("storage: table %s has no column %s", t.def.Name, c)
		}
		ords[i] = o
	}
	return ords, nil
}

// rowKey returns row's secondary-index key: its columns at ords, then the
// encoded primary key.
func rowKey(ords []int, row sqltypes.Row, pkKey string) string {
	var buf [sqltypes.KeyStackBytes]byte
	return string(append(appendOrds(buf[:0], row, ords), pkKey...))
}

// laneKey is rowKey for the stored row at leaf position i.
func laneKey(leaf *sqltypes.Lanes, i int, ords []int, pkKey string) string {
	var buf [sqltypes.KeyStackBytes]byte
	return string(append(leaf.AppendKey(buf[:0], i, ords), pkKey...))
}

// appendOrds appends the key encoding of row's columns at ords to dst.
func appendOrds(dst []byte, row sqltypes.Row, ords []int) []byte {
	for _, o := range ords {
		dst = sqltypes.AppendKey(dst, row[o])
	}
	return dst
}

// Replace is the table's one row mutator. With old nil it inserts new; with
// new nil it deletes the row at old's primary key; with both it replaces that
// row with new, in place when the key is the same, else as an insert and a
// delete under one hold of the latch. A missing old row, a new key another row
// holds, or a new row that does not fit (check) is an error and changes
// nothing, so Replace(new, old) undoes a Replace(old, new) that succeeded.
// Rows are copied into the leaf's lanes; the caller keeps ownership of both.
func (t *Table) Replace(old, new sqltypes.Row) error {
	if err := t.check(old, new); err != nil || old == nil && new == nil {
		return err
	}
	var ob, nb [sqltypes.KeyStackBytes]byte // a key is a string only where a tree keeps it
	var newPK []byte
	if new != nil {
		newPK = appendOrds(nb[:0], new, t.pkOrds)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old == nil {
		return t.insert(string(newPK), new)
	}
	oldPK := appendOrds(ob[:0], old, t.pkOrds)
	leaf, i, ok := t.primary.Find(string(oldPK))
	switch {
	case !ok:
		return fmt.Errorf("storage: %s: no row with primary key %s", t.def.Name, pkString(t, old))
	case new == nil: // a delete
	case string(newPK) == string(oldPK):
		for name, tree := range t.secondary {
			ords := t.secOrds[name]
			if oldKey, newKey := laneKey(leaf, i, ords, string(oldPK)), rowKey(ords, new, string(oldPK)); oldKey != newKey {
				tree.Delete(oldKey)
				tree.Set(newKey, string(oldPK))
			}
		}
		leaf.Put(i, new)
		return nil
	default: // a taken key fails the insert before anything changed
		if err := t.insert(string(newPK), new); err != nil {
			return err
		}
		leaf, i, _ = t.primary.Find(string(oldPK)) // the insert may have shifted it
	}
	for name, tree := range t.secondary {
		tree.Delete(laneKey(leaf, i, t.secOrds[name], string(oldPK)))
	}
	t.primary.Delete(string(oldPK))
	return nil
}

// insert adds row under its encoded primary key pk, unless a row holds it.
func (t *Table) insert(pk string, row sqltypes.Row) error {
	leaf, i, added := t.primary.Insert(pk)
	if !added {
		return fmt.Errorf("storage: %s: duplicate primary key %s", t.def.Name, pkString(t, row))
	}
	leaf.Put(i, row)
	for name, tree := range t.secondary {
		tree.Set(rowKey(t.secOrds[name], row, pk), pk)
	}
	return nil
}

// check rejects, before Replace changes anything, a row of the wrong arity
// and a new row with a NULL in a NOT NULL column.
func (t *Table) check(old, new sqltypes.Row) error {
	op := "insert"
	if old != nil {
		op = "replace"
	}
	for _, row := range [2]sqltypes.Row{old, new} {
		if row != nil && len(row) != len(t.def.Columns) {
			return fmt.Errorf("storage: %s: %s arity %d, want %d", t.def.Name, op, len(row), len(t.def.Columns))
		}
	}
	for i, col := range t.def.Columns {
		if new != nil && col.NotNull && new[i].IsNull() {
			return fmt.Errorf("storage: %s: NULL in NOT NULL column %s", t.def.Name, col.Name)
		}
	}
	return nil
}

func pkString(t *Table, row sqltypes.Row) string {
	vals := make([]sqltypes.Value, len(t.pkOrds))
	for i, o := range t.pkOrds {
		vals[i] = row[o]
	}
	return sqltypes.Row(vals).String()
}

func (t *Table) findIndex(name string) *catalog.Index {
	for _, idx := range t.def.Indexes {
		if idx.Name == name {
			return idx
		}
	}
	return nil
}

// Get returns a copy of the row with the given primary-key values.
func (t *Table) Get(pkVals sqltypes.Row) (sqltypes.Row, bool) {
	return t.Peek(pkVals, make(sqltypes.Row, 0, len(t.def.Columns)))
}

// Peek writes the row with the given primary-key values into dst's array,
// growing it only when it is narrower than the table, and returns it. The
// key is encoded on the stack and never kept, so a lookup into a buffer of
// the table's width allocates nothing.
func (t *Table) Peek(pkVals, dst sqltypes.Row) (sqltypes.Row, bool) {
	var buf [sqltypes.KeyStackBytes]byte
	key := sqltypes.AppendKey(buf[:0], pkVals...)
	t.mu.RLock()
	leaf, i, ok := t.primary.Find(string(key))
	if dst = dst[:0]; ok {
		dst = leaf.AppendRow(dst, i)
	}
	t.mu.RUnlock()
	return dst, ok
}

// Scan calls fn with every row in primary-key order until fn returns false.
// Rows are assembled a leaf window at a time into one reused buffer, so a
// row is valid only during the call: a caller that keeps it copies it.
func (t *Table) Scan(fn func(sqltypes.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var rows []sqltypes.Value
	w := len(t.def.Columns)
	t.primary.Walk("", "", func(_ []string, leaf *sqltypes.Lanes, i, j int) bool {
		rows = leaf.Rows(rows, i, j)
		for k := 0; k < j-i; k++ {
			if !fn(rows[k*w : (k+1)*w : (k+1)*w]) {
				return false
			}
		}
		return true
	})
}

// Bound describes one end of an index range. A nil Vals means unbounded.
type Bound struct {
	Vals      sqltypes.Row
	Inclusive bool
}

// ScanIndex appends to dst every row in the named index's range between lo
// and hi, in index order: the clustered index's rows copied a leaf window at
// a time, or a secondary index's entries resolved to their rows. The bounds
// apply to a prefix of the index key columns, so equal inclusive bounds are
// the equality seek of an index nested-loop join. The range is encoded in a
// stack buffer and the tree keeps neither end, so once dst has grown a scan
// whose bounds change from run to run allocates nothing (unless an encoded
// key outgrows the buffer). A secondary entry whose row is missing is an
// error: the index and the table are out of sync.
func (t *Table) ScanIndex(idxName string, lo, hi Bound, dst *sqltypes.Lanes) error {
	var buf [2 * sqltypes.KeyStackBytes]byte
	s, e := appendRangeKeys(buf[:0], lo, hi)
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := t.findIndex(idxName)
	if idx == nil {
		return fmt.Errorf("storage: table %s has no index %s", t.def.Name, idxName)
	}
	if idx.Clustered {
		t.primary.Walk(string(s), string(e), func(_ []string, leaf *sqltypes.Lanes, i, j int) bool {
			dst.Move(dst.Len(), leaf, i, j)
			return true
		})
		return nil
	}
	var err error
	t.secondary[idxName].AscendRange(string(s), string(e), func(_, pk string) bool {
		leaf, i, ok := t.primary.Find(pk)
		if !ok {
			err = fmt.Errorf("storage: dangling entry in index %s of %s", idxName, t.def.Name)
			return false
		}
		dst.Move(dst.Len(), leaf, i, i+1)
		return true
	})
	return err
}

// Clustered reports whether idxName names the table's clustered index.
func (t *Table) Clustered(idxName string) bool {
	idx := t.findIndex(idxName)
	return idx != nil && idx.Clustered
}

// appendRangeKeys encodes bounds on key-column prefixes into dst as the
// key range's endpoints for AscendRange (start inclusive, end exclusive).
func appendRangeKeys(dst []byte, lo, hi Bound) (start, end []byte) {
	start = appendBound(dst, lo, !lo.Inclusive)
	return start, appendBound(start, hi, hi.Inclusive)[len(start):]
}

// appendBound appends the bound's encoded key, or with past set the smallest
// key greater than every key that starts with its values; nothing when
// unbounded.
func appendBound(dst []byte, b Bound, past bool) []byte {
	switch {
	case b.Vals == nil:
		return dst
	case past:
		return sqltypes.AppendKeyEnd(dst, b.Vals...)
	}
	return sqltypes.AppendKey(dst, b.Vals...)
}

// Clear removes all rows (used when (re)initializing a replica).
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.primary = newRows(t.def)
	for name := range t.secondary {
		t.secondary[name] = btree.New[string]()
	}
}

// CheckIndexConsistency verifies that every secondary-index entry points at
// a live row and that every row is indexed; used by tests. It returns "" if
// consistent.
func (t *Table) CheckIndexConsistency() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for name, tree := range t.secondary {
		if tree.Len() != t.primary.Len() {
			return fmt.Sprintf("index %s has %d entries, table has %d rows", name, tree.Len(), t.primary.Len())
		}
		ords := t.secOrds[name]
		bad := ""
		tree.Ascend(func(key, pk string) bool {
			leaf, i, ok := t.primary.Find(pk)
			if !ok {
				bad = fmt.Sprintf("index %s entry points at missing row", name)
				return false
			}
			if want := laneKey(leaf, i, ords, pk); want != key {
				bad = fmt.Sprintf("index %s entry key mismatch", name)
				return false
			}
			return true
		})
		if bad != "" {
			return bad
		}
	}
	return ""
}
