// Package storage implements the in-memory row store used by both the
// back-end server and the cache's materialized views: a clustered B+-tree on
// the primary key plus any number of secondary indexes.
//
// Mutations return the before-image so the transaction layer can write the
// commit log that feeds replication. Tables are safe for concurrent use; a
// table-level RWMutex stands in for the paper's strict-2PL assumption (the
// paper assumes writers are serialized on the master; readers see committed
// states only).
package storage

import (
	"fmt"
	"math"
	"sync"

	"relaxedcc/internal/btree"
	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
)

// Table stores rows for one base table or materialized view.
type Table struct {
	def *catalog.Table

	mu        sync.RWMutex
	primary   *btree.Tree[sqltypes.Row]      // Key(pk) -> row
	secondary map[string]*btree.Tree[string] // index name -> Key(idx cols..., pk cols...) -> Key(pk)
	secOrds   map[string][]int               // index name -> key-column ordinals
	pkOrds    []int
}

// NewTable creates an empty table for the given definition.
func NewTable(def *catalog.Table) *Table {
	t := &Table{
		def:       def,
		primary:   btree.New[sqltypes.Row](),
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
	t.primary.Ascend(func(pkKey string, row sqltypes.Row) bool {
		tree.Set(t.indexKeyLocked(ords, row, pkKey), pkKey)
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

// pkKey returns the encoded primary key of row.
func (t *Table) pkKey(row sqltypes.Row) string {
	var buf [sqltypes.KeyStackBytes]byte
	return string(appendOrds(buf[:0], row, t.pkOrds))
}

func (t *Table) indexKeyLocked(ords []int, row sqltypes.Row, pkKey string) string {
	var buf [sqltypes.KeyStackBytes]byte
	return string(append(appendOrds(buf[:0], row, ords), pkKey...))
}

// appendOrds appends the key encoding of row's columns at ords to dst.
func appendOrds(dst []byte, row sqltypes.Row, ords []int) []byte {
	for _, o := range ords {
		dst = sqltypes.AppendKey(dst, row[o])
	}
	return dst
}

// Insert adds a row. It fails on arity mismatch, NOT NULL violation or
// duplicate primary key. The stored row is a clone; the caller keeps
// ownership of row.
func (t *Table) Insert(row sqltypes.Row) error {
	if len(row) != len(t.def.Columns) {
		return fmt.Errorf("storage: %s: insert arity %d, want %d", t.def.Name, len(row), len(t.def.Columns))
	}
	for i, col := range t.def.Columns {
		if col.NotNull && row[i].IsNull() {
			return fmt.Errorf("storage: %s: NULL in NOT NULL column %s", t.def.Name, col.Name)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pk := t.pkKey(row)
	if _, exists := t.primary.Get(pk); exists {
		return fmt.Errorf("storage: %s: duplicate primary key %s", t.def.Name, pkString(t, row))
	}
	stored := row.Clone()
	t.primary.Set(pk, stored)
	for name, tree := range t.secondary {
		tree.Set(t.indexKeyLocked(t.secOrds[name], stored, pk), pk)
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

// Delete removes the row with the given primary-key values, returning the
// removed row (the before-image) if one existed.
func (t *Table) Delete(pkVals sqltypes.Row) (sqltypes.Row, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pk := sqltypes.Key(pkVals...)
	old, ok := t.primary.Get(pk)
	if !ok {
		return nil, false
	}
	t.primary.Delete(pk)
	for name, tree := range t.secondary {
		tree.Delete(t.indexKeyLocked(t.secOrds[name], old, pk))
	}
	return old, true
}

// Update replaces the row identified by newRow's primary key with newRow,
// returning the before-image. It fails if no such row exists. Changing
// primary-key columns must be expressed as Delete+Insert by the caller.
func (t *Table) Update(newRow sqltypes.Row) (sqltypes.Row, error) {
	if len(newRow) != len(t.def.Columns) {
		return nil, fmt.Errorf("storage: %s: update arity %d, want %d", t.def.Name, len(newRow), len(t.def.Columns))
	}
	for i, col := range t.def.Columns {
		if col.NotNull && newRow[i].IsNull() {
			return nil, fmt.Errorf("storage: %s: NULL in NOT NULL column %s", t.def.Name, col.Name)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pk := t.pkKey(newRow)
	old, ok := t.primary.Get(pk)
	if !ok {
		return nil, fmt.Errorf("storage: %s: update of missing key", t.def.Name)
	}
	stored := newRow.Clone()
	t.primary.Set(pk, stored)
	for name, tree := range t.secondary {
		ords := t.secOrds[name]
		oldKey := t.indexKeyLocked(ords, old, pk)
		newKey := t.indexKeyLocked(ords, stored, pk)
		if oldKey != newKey {
			tree.Delete(oldKey)
			tree.Set(newKey, pk)
		}
	}
	return old, nil
}

// Get returns a copy of the row with the given primary-key values.
func (t *Table) Get(pkVals sqltypes.Row) (sqltypes.Row, bool) {
	row, ok := t.Peek(pkVals)
	return row.Clone(), ok
}

// Peek is Get without the copy: it returns the stored row, which callers
// must not mutate (the contract Scan gives). The key is encoded on the
// stack and never kept, so a lookup allocates nothing.
func (t *Table) Peek(pkVals sqltypes.Row) (sqltypes.Row, bool) {
	var buf [sqltypes.KeyStackBytes]byte
	key := sqltypes.AppendKey(buf[:0], pkVals...)
	t.mu.RLock()
	row, ok := t.primary.Get(string(key))
	t.mu.RUnlock()
	return row, ok
}

// Scan calls fn with every row in primary-key order until fn returns false.
// Rows passed to fn are the stored rows; callers must not mutate them.
func (t *Table) Scan(fn func(sqltypes.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.primary.Ascend(func(_ string, row sqltypes.Row) bool { return fn(row) })
}

// Bound describes one end of an index range. A nil Vals means unbounded.
type Bound struct {
	Vals      sqltypes.Row
	Inclusive bool
}

// ScanIndex range-scans the named index (or the clustered primary index if
// idxName matches a clustered index) between lo and hi, calling fn with each
// matching row until fn returns false. The bounds apply to a prefix of the
// index key columns.
//
// The range is encoded in a stack buffer and the tree keeps neither end, so
// a scan whose bounds change from run to run allocates nothing for them
// (unless an encoded key outgrows the buffer).
func (t *Table) ScanIndex(idxName string, lo, hi Bound, fn func(sqltypes.Row) bool) error {
	var buf [2 * sqltypes.KeyStackBytes]byte
	s, e := appendRangeKeys(buf[:0], lo, hi)
	start, end := string(s), string(e)
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := t.findIndex(idxName)
	if idx == nil {
		return fmt.Errorf("storage: table %s has no index %s", t.def.Name, idxName)
	}
	if idx.Clustered {
		t.primary.AscendRange(start, end, func(_ string, row sqltypes.Row) bool { return fn(row) })
		return nil
	}
	t.secondary[idxName].AscendRange(start, end, func(_, pk string) bool { return fn(t.rowOf(idxName, pk)) })
	return nil
}

// rowOf resolves a secondary-index entry to its row.
func (t *Table) rowOf(idxName, pk string) sqltypes.Row {
	row, ok := t.primary.Get(pk)
	if !ok { // index and heap out of sync: structural bug
		panic("storage: dangling index entry in " + idxName)
	}
	return row
}

// SeekEq appends to dst every row whose leading index columns equal key, in
// index order — the equality seek of an index nested-loop join. The key and
// its prefix end are encoded side by side in one stack buffer and the walk
// calls nothing back, so a seek allocates only when dst has to grow (or the
// encoded key outgrows the buffer).
func (t *Table) SeekEq(idxName string, key sqltypes.Row, dst []sqltypes.Row) ([]sqltypes.Row, error) {
	var buf [sqltypes.KeyStackBytes]byte
	k := sqltypes.AppendKey(buf[:0], key...)
	e := btree.AppendPrefixEnd(k, k)[len(k):]
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := t.findIndex(idxName)
	if idx == nil {
		return dst, fmt.Errorf("storage: table %s has no index %s", t.def.Name, idxName)
	}
	if idx.Clustered {
		dst, _, _ = t.primary.AppendRange(dst, string(k), string(e), math.MaxInt)
		return dst, nil
	}
	var pkBuf [8]string
	pks, _, _ := t.secondary[idxName].AppendRange(pkBuf[:0], string(k), string(e), math.MaxInt)
	for _, pk := range pks {
		dst = append(dst, t.rowOf(idxName, pk))
	}
	return dst, nil
}

// RangeKeys converts bounds on key-column prefixes to encoded key-range
// endpoints for AscendRange (start inclusive, end exclusive).
func RangeKeys(lo, hi Bound) (start, end string) {
	var buf [2 * sqltypes.KeyStackBytes]byte
	s, e := appendRangeKeys(buf[:0], lo, hi)
	return string(s), string(e)
}

// appendRangeKeys encodes RangeKeys' endpoints into dst, start then end.
func appendRangeKeys(dst []byte, lo, hi Bound) (start, end []byte) {
	start = appendBound(dst, lo, !lo.Inclusive)
	return start, appendBound(start, hi, hi.Inclusive)[len(start):]
}

// appendBound appends the bound's encoded key, or with past set the smallest
// key greater than every key it is a prefix of; nothing when unbounded.
func appendBound(dst []byte, b Bound, past bool) []byte {
	if b.Vals == nil {
		return dst
	}
	k := sqltypes.AppendKey(dst, b.Vals...)
	if past {
		k = btree.AppendPrefixEnd(k[:len(dst)], k[len(dst):])
	}
	return k
}

// Clear removes all rows (used when (re)initializing a replica).
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.primary = btree.New[sqltypes.Row]()
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
			row, ok := t.primary.Get(pk)
			if !ok {
				bad = fmt.Sprintf("index %s entry points at missing row", name)
				return false
			}
			if want := t.indexKeyLocked(ords, row, pk); want != key {
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
