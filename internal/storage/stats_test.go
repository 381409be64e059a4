package storage_test

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/tpcd"
)

// referenceStats is ANALYZE as a fold over the rows one value at a time,
// the algorithm Table.Analyze replaced: a Key string per value in a set per
// column for NDV, Value.Compare for Min and Max, every numeric value's Float
// for the histogram. Table.Analyze must give exactly these statistics.
func referenceStats(tbl *storage.Table) *catalog.TableStats {
	t := tbl.Def()
	type colAgg struct {
		distinct map[string]struct{}
		nulls    int64
		min, max sqltypes.Value
		numeric  []float64
	}
	aggs := make([]*colAgg, len(t.Columns))
	for i := range aggs {
		aggs[i] = &colAgg{distinct: map[string]struct{}{}, min: sqltypes.Null, max: sqltypes.Null}
	}
	var rows int64
	var bytes int64
	tbl.Scan(func(r sqltypes.Row) bool {
		rows++
		for i, v := range r {
			a := aggs[i]
			if v.IsNull() {
				a.nulls++
				continue
			}
			a.distinct[sqltypes.Key(v)] = struct{}{}
			if a.min.IsNull() || v.Compare(a.min) < 0 {
				a.min = v
			}
			if a.max.IsNull() || v.Compare(a.max) > 0 {
				a.max = v
			}
			if v.IsNumeric() {
				a.numeric = append(a.numeric, v.Float())
			}
			switch v.Kind() {
			case sqltypes.KindString:
				bytes += int64(len(v.Str())) + 2
			case sqltypes.KindBool:
				bytes++
			default:
				bytes += 8
			}
		}
		return true
	})
	stats := catalog.NewTableStats()
	stats.RowCount = rows
	if rows > 0 {
		stats.AvgRowBytes = bytes / rows
		if stats.AvgRowBytes < 8 {
			stats.AvgRowBytes = 8
		}
	}
	for i, a := range aggs {
		cs := &catalog.ColumnStats{
			NDV:       int64(len(a.distinct)),
			NullCount: a.nulls,
			Min:       a.min,
			Max:       a.max,
		}
		if len(a.numeric) > 0 && !a.min.IsNull() && a.min.IsNumeric() && a.max.IsNumeric() {
			cs.Histogram = referenceHistogram(a.numeric, a.min.Float(), a.max.Float())
		}
		stats.Columns[t.Columns[i].Name] = cs
	}
	return stats
}

func referenceHistogram(vals []float64, minV, maxV float64) []int64 {
	const buckets = 32
	h := make([]int64, buckets)
	span := maxV - minV
	if span <= 0 {
		h[0] = int64(len(vals))
		return h
	}
	for _, v := range vals {
		b := int((v - minV) / span * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		if b < 0 {
			b = 0
		}
		h[b]++
	}
	return h
}

// TestAnalyzeMatchesReference holds Table.Analyze to referenceStats, whole
// TableStats by reflect.DeepEqual, on TPC-D and on a table of every edge of
// Key's equivalence classes.
func TestAnalyzeMatchesReference(t *testing.T) {
	sys := core.NewSystem()
	tpcd.CreateSchema(sys)
	if err := tpcd.Load(sys, tpcd.Config{ScaleFactor: 0.01, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tbl  *storage.Table
	}{
		{"tpcd-customer", sys.Backend.Table("Customer")},
		{"tpcd-orders", sys.Backend.Table("Orders")},
		{"edges", edgeTable(t)},
		{"empty", storage.NewTable(statsDef(t))},
	} {
		t.Run(c.name, func(t *testing.T) { matchesReference(t, c.tbl) })
	}
}

// matchesReference fails t unless tbl.Analyze() is reflect.DeepEqual to
// referenceStats(tbl), naming each column that differs.
func matchesReference(t *testing.T, tbl *storage.Table) {
	t.Helper()
	got, want := tbl.Analyze(), referenceStats(tbl)
	if reflect.DeepEqual(got, want) {
		return
	}
	for name, cs := range want.Columns {
		if !reflect.DeepEqual(got.Columns[name], cs) {
			t.Errorf("%s: got %+v, want %+v", name, got.Columns[name], cs)
		}
	}
	t.Fatalf("rows %d, %d bytes a row; want %d, %d", got.RowCount, got.AvgRowBytes, want.RowCount, want.AvgRowBytes)
}

// statsDef is a table with a column of every declared kind, each nullable,
// and n, which edgeTable leaves NULL throughout.
func statsDef(t testing.TB) *catalog.Table {
	cat := catalog.New()
	col := func(name string, k sqltypes.Kind) catalog.Column { return catalog.Column{Name: name, Type: k} }
	if err := cat.AddTable(&catalog.Table{
		Name: "T",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt, NotNull: true}, col("i", sqltypes.KindInt),
			col("f", sqltypes.KindFloat), col("s", sqltypes.KindString), col("ts", sqltypes.KindTime),
			col("b", sqltypes.KindBool), col("n", sqltypes.KindInt),
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	return cat.Table("T")
}

// edgeTable holds 600 rows over several leaves. Beside filler rows, column f
// has −0.0 and 0.0, DOUBLE 2^53 with BIGINT 2^53 + 1 and 2^53, and INT 1
// with DOUBLE 1.0 — the INTs turn their leaf's lane into the Any fallback —
// and NaN; i has ±max int64 and min int64 + 1; s has ”, strings with 0x00
// and strings past the 64-byte key buffer; ts TIMESTAMPs before and after
// the epoch; and n is NULL throughout.
func edgeTable(t *testing.T) *storage.Table {
	tbl := storage.NewTable(statsDef(t))
	i, f, s := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	long := strings.Repeat("x", 70)
	special := map[int64][]sqltypes.Value{
		3:   {i(math.MaxInt64), f(math.Copysign(0, -1)), s("")},
		4:   {i(math.MinInt64), f(0), s("a\x00")},
		5:   {i(math.MinInt64 + 1), f(1 << 53), s("a")},
		6:   {sqltypes.Null, f(math.NaN()), s("a\x00\x00")},
		300: {i(1), i(1<<53 + 1), s(long)},
		301: {f(1), i(1), s(long + "y")},
		302: {i(-7), i(1 << 53), s(long)},
		303: {i(8), f(1), sqltypes.Null},
		500: {i(2), f(math.Copysign(0, -1)), s("\x00")},
	}
	for id := int64(1); id <= 600; id++ {
		vals := special[id]
		if vals == nil {
			vals = []sqltypes.Value{i(id % 17), f(float64(id%23) / 4), s(long[:id%80%71])}
			if id%9 == 0 {
				vals[id%3] = sqltypes.Null
			}
		}
		row := append(sqltypes.Row{i(id)}, vals...)
		row = append(row, sqltypes.NewTime(time.Unix(id%50-25, id)), sqltypes.NewBool(id%3 == 0), sqltypes.Null)
		if err := tbl.Replace(nil, row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// FuzzStats loads generated rows into a table with Replace and holds
// Table.Analyze to referenceStats. The second argument is the row count (up
// to 1,024, inserted in a shuffled key order, so leaves split); the bytes
// give the rows' values, read cyclically: each value is a tag and its
// payload — 'n' NULL, 'i' a BIGINT and 't' a TIMESTAMP (eight bytes), 'f' a
// DOUBLE (eight bytes of bits), 's' a VARCHAR (a length, then its bytes), 'b'
// a BOOLEAN (one byte) — or any other byte, a small value of the column's
// declared kind. A value of another kind turns its leaf's lane into the Any
// fallback.
func FuzzStats(f *testing.F) {
	f.Add([]byte("\x01\x02\x03"), uint16(600))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		def := statsDef(t)
		tbl := storage.NewTable(def)
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 'n'
			}
			pos++
			return data[(pos-1)%len(data)]
		}
		word := func() int64 {
			var b [8]byte
			for k := range b {
				b[k] = next()
			}
			return int64(binary.BigEndian.Uint64(b[:]))
		}
		for r := 0; r < int(n%1025); r++ {
			row := sqltypes.Row{sqltypes.NewInt(int64(r * 7919 % 1031))}
			for _, col := range def.Columns[1:] {
				row = append(row, fuzzValue(next(), col.Type, next, word))
			}
			if err := tbl.Replace(nil, row); err != nil {
				t.Fatal(err)
			}
		}
		matchesReference(t, tbl)
	})
}

// fuzzValue decodes one FuzzStats value from its tag.
func fuzzValue(tag byte, kind sqltypes.Kind, next func() byte, word func() int64) sqltypes.Value {
	switch tag {
	case 'n':
		return sqltypes.Null
	case 'i':
		return sqltypes.NewInt(word())
	case 'f':
		return sqltypes.NewFloat(math.Float64frombits(uint64(word())))
	case 't':
		return sqltypes.NewTime(time.Unix(0, word()))
	case 'b':
		return sqltypes.NewBool(next()&1 == 1)
	case 's':
		b := make([]byte, next()%100)
		for k := range b {
			b[k] = next()
		}
		return sqltypes.NewString(string(b))
	}
	small := int64(int8(tag))
	switch kind {
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(float64(small) / 2)
	case sqltypes.KindString:
		return sqltypes.NewString(strings.Repeat("x", int(tag)%80))
	case sqltypes.KindTime:
		return sqltypes.NewTime(time.Unix(small, 0))
	case sqltypes.KindBool:
		return sqltypes.NewBool(tag&1 == 1)
	}
	return sqltypes.NewInt(small)
}
