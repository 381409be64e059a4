package catalog

import (
	"math"
	"slices"
	"sync"

	"relaxedcc/internal/sqltypes"
)

// histogramBuckets is the number of equi-width buckets kept per numeric
// column.
const histogramBuckets = 32

// ColumnStats summarizes one column for cardinality estimation.
type ColumnStats struct {
	NDV       int64 // number of distinct values
	NullCount int64
	Min, Max  sqltypes.Value // numeric columns only (Null otherwise)
	// Histogram is an equi-width histogram over [Min, Max] for numeric
	// columns; Histogram[i] counts rows in the i-th bucket.
	Histogram []int64
}

// TableStats summarizes a table for the optimizer. At the cache these
// reflect the *back-end* data (the shadow-catalog trick from Section 3), so
// they are set by copying, not derived from local storage.
type TableStats struct {
	mu       sync.RWMutex
	RowCount int64
	Columns  map[string]*ColumnStats
	// AvgRowBytes estimates the serialized width of a row; used to cost
	// shipping rows over the cache/back-end link.
	AvgRowBytes int64
}

// NewTableStats returns empty statistics.
func NewTableStats() *TableStats {
	return &TableStats{Columns: map[string]*ColumnStats{}, AvgRowBytes: 64}
}

// Clone returns a deep copy of the statistics, taken under the read lock: the
// one way to read Columns of statistics another goroutine may Set.
func (s *TableStats) Clone() *TableStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := &TableStats{RowCount: s.RowCount, AvgRowBytes: s.AvgRowBytes, Columns: map[string]*ColumnStats{}}
	for name, cs := range s.Columns {
		cp := *cs
		cp.Histogram = append([]int64(nil), cs.Histogram...)
		out.Columns[name] = &cp
	}
	return out
}

// Set replaces the statistics wholesale (thread-safe).
func (s *TableStats) Set(rowCount, avgRowBytes int64, cols map[string]*ColumnStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.RowCount = rowCount
	if avgRowBytes > 0 {
		s.AvgRowBytes = avgRowBytes
	}
	s.Columns = cols
}

// Rows returns the estimated row count (at least 1, so selectivity math
// never divides by zero).
func (s *TableStats) Rows() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.RowCount < 1 {
		return 1
	}
	return s.RowCount
}

// RowBytes returns the estimated average row width in bytes.
func (s *TableStats) RowBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.AvgRowBytes < 1 {
		return 64
	}
	return s.AvgRowBytes
}

// Column returns stats for the named column, or nil.
func (s *TableStats) Column(name string) *ColumnStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Columns[name]
}

// defaultEqSelectivity is used when no column statistics exist.
const defaultEqSelectivity = 0.01

// defaultRangeSelectivity is used when no histogram applies.
const defaultRangeSelectivity = 0.3

// SelectivityEq estimates the fraction of rows with column = some value.
func (s *TableStats) SelectivityEq(col string) float64 {
	cs := s.Column(col)
	if cs == nil || cs.NDV <= 0 {
		return defaultEqSelectivity
	}
	return 1.0 / float64(cs.NDV)
}

// SelectivityRange estimates the fraction of rows with lo <= col <= hi.
// Either bound may be Null meaning unbounded on that side.
func (s *TableStats) SelectivityRange(col string, lo, hi sqltypes.Value) float64 {
	cs := s.Column(col)
	if cs == nil || cs.Min.IsNull() || cs.Max.IsNull() || !cs.Min.IsNumeric() {
		return defaultRangeSelectivity
	}
	minV, maxV := cs.Min.Float(), cs.Max.Float()
	if maxV <= minV {
		return 1.0
	}
	loF, hiF := minV, maxV
	if !lo.IsNull() && lo.IsNumeric() {
		loF = lo.Float()
	}
	if !hi.IsNull() && hi.IsNumeric() {
		hiF = hi.Float()
	}
	if hiF < loF {
		return 0
	}
	if len(cs.Histogram) > 0 {
		return histogramFraction(cs.Histogram, minV, maxV, loF, hiF)
	}
	frac := (min64(hiF, maxV) - max64(loF, minV)) / (maxV - minV)
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}

func histogramFraction(h []int64, minV, maxV, lo, hi float64) float64 {
	width := (maxV - minV) / float64(len(h))
	if width <= 0 {
		return 1.0
	}
	var total, in float64
	for i, c := range h {
		total += float64(c)
		bLo := minV + float64(i)*width
		bHi := bLo + width
		overlap := min64(hi, bHi) - max64(lo, bLo)
		if overlap <= 0 {
			continue
		}
		in += float64(c) * overlap / width
	}
	if total == 0 {
		return defaultRangeSelectivity
	}
	frac := in / total
	if frac > 1 {
		return 1
	}
	return frac
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Analyze computes a table's statistics from its rows, which walk hands to
// visit a window at a time in key order: ANALYZE over a table's leaf lanes
// (storage.Table.Analyze). The figures are those of a fold over the rows a
// value at a time: NDV counts the distinct Key encodings of a column's
// values, Min and Max keep the first of equal values in key order, and the
// histogram and AvgRowBytes count every value. A lane is folded by a typed
// loop of its kind, and no key is encoded (colFold).
func Analyze(t *Table, walk func(visit func(*sqltypes.ColBatch))) *TableStats {
	folds := make([]colFold, len(t.Columns))
	var rows, bytes int64
	walk(func(b *sqltypes.ColBatch) {
		rows += int64(b.Len())
		for c := range folds {
			bytes += folds[c].add(b.Col(c))
		}
	})
	stats := NewTableStats()
	if stats.RowCount = rows; rows > 0 {
		stats.AvgRowBytes = max(bytes/rows, 8)
	}
	for c, f := range folds {
		cs := &ColumnStats{NullCount: f.nulls, Min: f.min, Max: f.max}
		if f.min.IsNumeric() && f.max.IsNumeric() {
			cs.Histogram = f.histogram()
		}
		for _, set := range f.sets {
			slices.Sort(set)
			cs.NDV += int64(len(slices.Compact(set)))
		}
		slices.Sort(f.strs)
		cs.NDV += int64(len(slices.Compact(f.strs)))
		stats.Columns[t.Columns[c].Name] = cs
	}
	return stats
}

// colFold is one column's statistics so far. Each value is recorded as its
// class of equal Key encodings, which Analyze sorts and counts: sets[KindFloat]
// holds a FLOAT's bits (−0 as 0) and an INT's that a float64 holds exactly
// (1 and 1.0 are one class), sets[KindInt] an INT past 2^53 that none holds,
// sets[KindBool] and sets[KindTime] the payload, strs a STRING's own text.
type colFold struct {
	sets     [sqltypes.KindTime + 1][]uint64
	strs     []string
	nulls    int64
	min, max sqltypes.Value
}

// add folds one window's lane and returns its values' estimated bytes: by
// one typed loop, or value by value for a BOOL lane, the Any fallback of a
// mixed-kind leaf, and a lane of another kind than the extremes so far.
func (f *colFold) add(v *sqltypes.Vec) (bytes int64) {
	if f.min.IsNull() || f.min.Kind() == v.Kind && f.max.Kind() == v.Kind {
		switch v.Kind {
		case sqltypes.KindInt:
			return fold(f, v, v.I64, sqltypes.Value.Int, f.int)
		case sqltypes.KindFloat:
			return fold(f, v, v.F64, sqltypes.Value.Float, f.float)
		case sqltypes.KindTime:
			return fold(f, v, v.I64, timeNanos, f.time)
		case sqltypes.KindString:
			return fold(f, v, v.Str, sqltypes.Value.Str, f.str)
		}
	}
	for k := 0; k < v.Len(); k++ {
		bytes += f.value(v.Value(k))
	}
	return bytes
}

// fold is add's typed loop over xs, lane v's values: it records each
// value's class and continues the running Min and Max, which word reads as xs'
// type, where a tie keeps the earlier value.
func fold[T int64 | float64 | string](f *colFold, v *sqltypes.Vec, xs []T, word func(sqltypes.Value) T, count func(T) int64) (bytes int64) {
	var lo, hi T
	have := !f.min.IsNull()
	if have {
		lo, hi = word(f.min), word(f.max)
	}
	for k, x := range xs {
		switch {
		case v.IsNull(k):
			f.nulls++
			continue
		case !have:
			lo, hi, have, f.min, f.max = x, x, true, v.Value(k), v.Value(k)
		case x < lo:
			lo, f.min = x, v.Value(k)
		case x > hi:
			hi, f.max = x, v.Value(k)
		}
		bytes += count(x)
	}
	return bytes
}

// value folds one value and returns its estimated bytes.
func (f *colFold) value(v sqltypes.Value) (bytes int64) {
	switch v.Kind() {
	case sqltypes.KindNull:
		f.nulls++
		return 0
	case sqltypes.KindBool:
		f.class(sqltypes.KindBool, uint64(v.Compare(sqltypes.NewBool(false)))) // 0 or 1
		bytes = 1
	case sqltypes.KindInt:
		bytes = f.int(v.Int())
	case sqltypes.KindFloat:
		bytes = f.float(v.Float())
	case sqltypes.KindTime:
		bytes = f.time(timeNanos(v))
	case sqltypes.KindString:
		bytes = f.str(v.Str())
	}
	if f.min.IsNull() || v.Compare(f.min) < 0 {
		f.min = v
	}
	if f.max.IsNull() || v.Compare(f.max) > 0 {
		f.max = v
	}
	return bytes
}

// class records a value of payload u in sets[k].
func (f *colFold) class(k sqltypes.Kind, u uint64) { f.sets[k] = append(f.sets[k], u) }

// int, float, time and str record a value of their kind and return its
// estimated bytes. An INT joins its float64's class where that holds it
// exactly, and a FLOAT −0 the class of 0, which it equals.
func (f *colFold) int(x int64) int64 {
	if fl, ok := sqltypes.IntFloat(x); ok {
		return f.float(fl)
	}
	f.class(sqltypes.KindInt, uint64(x))
	return 8
}

func (f *colFold) float(x float64) int64 {
	if x == 0 {
		x = 0
	}
	f.class(sqltypes.KindFloat, math.Float64bits(x))
	return 8
}

func (f *colFold) time(x int64) int64 {
	f.class(sqltypes.KindTime, uint64(x))
	return 8
}

func (f *colFold) str(s string) int64 {
	f.strs = append(f.strs, s)
	return int64(len(s)) + 2
}

func timeNanos(v sqltypes.Value) int64 { return v.Time().UnixNano() }

// histogram counts the numeric values into histogramBuckets equi-width
// buckets over [Min, Max], each at its Float.
func (f *colFold) histogram() []int64 {
	h := make([]int64, histogramBuckets)
	minV, span := f.min.Float(), f.max.Float()-f.min.Float()
	count := func(x float64) {
		b := 0
		if span > 0 {
			b = min(max(int((x-minV)/span*float64(histogramBuckets)), 0), histogramBuckets-1)
		}
		h[b]++
	}
	for _, u := range f.sets[sqltypes.KindFloat] {
		count(math.Float64frombits(u))
	}
	for _, u := range f.sets[sqltypes.KindInt] {
		count(float64(int64(u)))
	}
	return h
}
