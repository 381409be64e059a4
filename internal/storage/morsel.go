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

// ScanChunk reads up to limit clustered-index rows with encoded keys in
// [start, end) — "" meaning unbounded — calling fn with each. It returns the
// encoded key at which the next chunk resumes and whether rows may remain;
// the resume row itself has not been passed to fn. Like ScanMorsel it
// acquires the read latch per call, so a chunked scan interleaves with
// writers at chunk granularity. It is the storage feed of the batched
// executor's streaming clustered scan.
func (t *Table) ScanChunk(start, end string, limit int, fn func(sqltypes.Row) bool) (next string, more bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	t.primary.AscendRange(start, end, func(k string, val any) bool {
		if n >= limit {
			next, more = k, true
			return false
		}
		n++
		return fn(val.(sqltypes.Row))
	})
	return next, more
}

// ChunkRows bulk-appends up to limit clustered-index rows with encoded keys
// in [start, end) — "" meaning unbounded — onto dst, walking whole leaves
// instead of invoking a callback per row. It returns the grown batch, the
// encoded key at which the next chunk resumes, and whether rows may remain.
// Latching matches ScanChunk: one short read latch per call.
func (t *Table) ChunkRows(start, end string, limit int, dst sqltypes.Batch) (sqltypes.Batch, string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var next string
	more := false
	t.primary.AscendLeaves(start, end, func(keys []string, vals []any) bool {
		if room := limit - len(dst); len(vals) > room {
			for _, v := range vals[:room] {
				dst = append(dst, v.(sqltypes.Row))
			}
			next, more = keys[room], true
			return false
		}
		for _, v := range vals {
			dst = append(dst, v.(sqltypes.Row))
		}
		return true
	})
	return dst, next, more
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
	t.primary.AscendRange(m.Start, m.End, func(_ string, val any) bool {
		return fn(val.(sqltypes.Row))
	})
}
