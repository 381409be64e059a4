package storage

import (
	"relaxedcc/internal/sqltypes"
)

// Morsel is a half-open range [Start, End) of encoded clustered-index keys:
// the unit of work a parallel scan worker claims. An empty Start means from
// the beginning of the range; an empty End means to the end.
type Morsel struct {
	Start, End string
}

// Morsels partitions the clustered primary-key range described by lo/hi
// (same bound semantics as ScanIndex on a clustered index) into up to parts
// contiguous morsels of roughly equal cardinality, using the B+-tree's
// separator keys as boundaries. It always returns at least one morsel
// covering the whole range, so callers can fan out workers unconditionally.
func (t *Table) Morsels(lo, hi Bound, parts int) []Morsel {
	t.mu.RLock()
	defer t.mu.RUnlock()
	start, end := RangeKeys(lo, hi)
	morsels := make([]Morsel, 0, parts)
	cur := start
	for _, s := range t.primary.SplitKeys(parts) {
		if s <= cur {
			continue // splits are sorted; skip those before the range
		}
		if end != "" && s >= end {
			break
		}
		morsels = append(morsels, Morsel{Start: cur, End: s})
		cur = s
	}
	return append(morsels, Morsel{Start: cur, End: end})
}

// ChunkRows bulk-appends up to limit clustered-index rows with encoded keys
// in [start, end) — "" meaning unbounded — onto dst: whole leaf windows of
// the typed tree copied with append, no callback and no per-row unboxing. It
// returns the grown batch, the encoded key at which the next chunk resumes
// (that row has not been appended), and whether rows may remain. Each call
// takes one short read latch, so a chunked scan interleaves with writers at
// chunk granularity. It is the storage feed of the executor's streaming
// clustered scans.
func (t *Table) ChunkRows(start, end string, limit int, dst sqltypes.Batch) (sqltypes.Batch, string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.primary.AppendRange(dst, start, end, limit-len(dst))
}

// ScanMorsel scans the clustered primary index over the morsel's key range,
// calling fn with each stored row until fn returns false. Rows passed to fn
// are the stored rows; callers must not mutate them. Each morsel scan
// acquires the table's read latch independently, so a long parallel scan
// interleaves with writers at morsel granularity — each morsel sees a
// committed state, matching the read-committed view Scan provides.
func (t *Table) ScanMorsel(m Morsel, fn func(sqltypes.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.primary.AscendRange(m.Start, m.End, func(_ string, row sqltypes.Row) bool { return fn(row) })
}
