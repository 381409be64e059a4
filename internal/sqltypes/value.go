// Package sqltypes defines the typed values (datums) flowing through the
// engine: NULL, 64-bit integers, floats, strings, booleans and timestamps.
//
// Values are small immutable structs. Comparison follows SQL ordering with
// NULL sorting first (as in index keys); numeric kinds compare exactly across
// INT/FLOAT. Key encodes composite keys into order-preserving byte strings so
// they can double as hash-map keys in joins and aggregation.
package sqltypes

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL datum. The zero Value is NULL.
type Value struct {
	kind Kind
	// i holds KindInt, KindBool (0/1), KindTime (ns since Unix epoch, UTC) and
	// the IEEE-754 bits of KindFloat: one word for every fixed-width kind
	// keeps a Value at 32 bytes.
	i int64
	s string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(f))} }

// f64 decodes a KindFloat payload.
func (v Value) f64() float64 { return math.Float64frombits(uint64(v.i)) }

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	if b {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// NewTime returns a timestamp value (stored with nanosecond precision, UTC).
func NewTime(t time.Time) Value { return Value{kind: KindTime, i: t.UTC().UnixNano()} }

// Kind returns the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer contents. It panics on non-integer kinds.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("sqltypes: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the value as float64, converting from integer if needed.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f64()
	case KindInt:
		return float64(v.i)
	default:
		panic("sqltypes: Float() on " + v.kind.String())
	}
}

// Str returns the string contents. It panics on non-string kinds.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("sqltypes: Str() on " + v.kind.String())
	}
	return v.s
}

// Bool returns the boolean contents. It panics on non-boolean kinds.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("sqltypes: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// Time returns the timestamp contents. It panics on non-timestamp kinds.
func (v Value) Time() time.Time {
	if v.kind != KindTime {
		panic("sqltypes: Time() on " + v.kind.String())
	}
	return time.Unix(0, v.i).UTC()
}

// IsNumeric reports whether the value is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// ExactFloat returns a FLOAT, or an INT a float64 holds exactly, as float64;
// ok is false for every other value, including an INT past 2^53 that Float
// would round onto a neighbour.
func (v Value) ExactFloat() (f float64, ok bool) {
	if v.kind == KindInt {
		return IntFloat(v.i)
	}
	return v.f64(), v.kind == KindFloat
}

// IntFloat converts i to float64 and reports whether the conversion is
// exact: it is for every integer of magnitude up to 2^53, and for the wider
// ones whose low bits are zero.
func IntFloat(i int64) (float64, bool) {
	f := float64(i)
	return f, f < 1<<63 && int64(f) == i
}

// String renders the value for display. Strings are quoted; NULL prints as
// NULL.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f64(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindTime:
		return v.Time().Format("'2006-01-02 15:04:05.000000000'")
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// Display renders the value for result output: like String but without
// quoting strings.
func (v Value) Display() string {
	if v.kind == KindString {
		return v.s
	}
	if v.kind == KindTime {
		return v.Time().Format("2006-01-02 15:04:05")
	}
	return v.String()
}

// Compare orders two values: -1 if v < w, 0 if equal, +1 if v > w.
//
// NULL sorts before every non-NULL value (index-key order). INT and FLOAT
// compare numerically across kinds, exactly: a BIGINT past 2^53 is not equal
// to the float64 it would round to. Other mixed kinds order by Kind, which
// keeps sorting total; no SQL statement compares them, as binding
// (exec.Bind) rejects such comparisons and join edges before planning.
func (v Value) Compare(w Value) int {
	if v.kind == KindNull || w.kind == KindNull {
		switch {
		case v.kind == w.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.IsNumeric() && w.IsNumeric() {
		switch {
		case v.kind == KindInt && w.kind == KindInt:
			return cmpInt(v.i, w.i)
		case v.kind == KindInt:
			return cmpIntFloat(v.i, w.f64())
		case w.kind == KindInt:
			return -cmpIntFloat(w.i, v.f64())
		}
		return cmpFloat(v.f64(), w.f64())
	}
	if v.kind != w.kind {
		return cmpInt(int64(v.kind), int64(w.kind))
	}
	switch v.kind {
	case KindBool, KindTime:
		return cmpInt(v.i, w.i)
	case KindString:
		return strings.Compare(v.s, w.s)
	default:
		return 0
	}
}

// Equal reports whether the two values compare equal. NULL equals NULL here
// (useful for grouping); SQL three-valued equality lives in the expression
// evaluator.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpIntFloat compares an integer with a float exactly: i lies at or above
// the float64 below it and short of the next one, so that float64 decides
// unless it equals f, and then i's remainder does. NaN compares equal, as in
// cmpFloat.
func cmpIntFloat(i int64, f float64) int {
	fl, rem := intFloor(i)
	if c := cmpFloat(fl, f); c != 0 || rem == 0 || f != f {
		return c
	}
	return 1
}

// Row is a tuple of values.
type Row []Value

// Clone returns a copy of the row with its own backing array.
func (r Row) Clone() Row {
	if r == nil {
		return nil
	}
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports element-wise equality of two rows.
func (r Row) Equal(s Row) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if !r[i].Equal(s[i]) {
			return false
		}
	}
	return true
}

// hashSeed seeds the string hashes of Row.Hash: one per process.
var hashSeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of the row's values with their kinds and
// positions: a fixed-width value's word mixed in directly, a string's bytes
// through hash/maphash. The seed is drawn once per process, so hashes agree
// within a run, not across runs. A nil row hashes to 0. The wrapping sum of
// a multiset's row hashes is its digest: order-insensitive, and a change
// from Old to New moves it by New.Hash() - Old.Hash().
func (r Row) Hash() uint64 {
	if r == nil {
		return 0
	}
	h := uint64(len(r))
	for _, v := range r {
		w := uint64(v.i)
		if v.kind == KindString {
			w = maphash.String(hashSeed, v.s)
		}
		hi, lo := bits.Mul64(h^0xa0761d6478bd642f, w^uint64(v.kind)<<56^0xe7037ed1a0b428db)
		h = hi ^ lo
	}
	hi, lo := bits.Mul64(h^0x8ebc6af09c88c6e3, 0x589965cc75374cc3)
	return hi ^ lo
}

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Key encodes a composite key into an order-preserving byte string:
// comparing two encoded keys with bytes.Compare (or using them as map keys
// for equality) agrees with element-wise Value.Compare, NaN aside. INT and
// FLOAT values encode identically when numerically equal. The encoding is
// assembled in a stack buffer, so a key of up to KeyStackBytes costs one
// allocation (the returned string).
func Key(vals ...Value) string {
	var buf [KeyStackBytes]byte
	return string(AppendKey(buf[:0], vals...))
}

// KeyStackBytes sizes the stack buffers keys are encoded into. It covers
// every key the engine builds from numeric, time and short string columns;
// longer keys spill to the heap as append grows.
const KeyStackBytes = 64

// AppendKey appends the Key encoding of vals to dst, for callers that
// encode into their own buffer (a lookup that never keeps the key).
func AppendKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = appendKey(dst, v)
	}
	return dst
}

// AppendKeyEnd appends the smallest key greater than every key whose leading
// elements equal vals: the exclusive end of an index range over a key prefix.
// Each element's encoding is followed by the end of the key, the next
// element's tag (0x00 to 0x04) or, for a BIGINT past 2^53, the 0xFF of its
// remainder, so vals' key plus 0xFF sorts after the first two and before the
// third.
func AppendKeyEnd(dst []byte, vals ...Value) []byte {
	return append(AppendKey(dst, vals...), 0xFF)
}

// RowKey is Key applied to a whole row.
func RowKey(r Row) string { return Key(r...) }

func appendKey(b []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(b, 0x00)
	case KindBool:
		return append(b, 0x01, byte(v.i))
	case KindInt:
		// The numeric tag and the key of the float64 at or below i, so that
		// 1 and 1.0 encode identically. Past 2^53, where i may lie between
		// two float64s, a remainder follows: 0xFF (above every tag, so after
		// each key that continues the float64's), then the remainder, below
		// 2^10, in two bytes big-endian.
		f, rem := intFloor(v.i)
		b = appendFloatKey(append(b, 0x02), f)
		if rem == 0 {
			return b
		}
		return append(b, 0xFF, byte(rem>>8), byte(rem))
	case KindFloat:
		return appendFloatKey(append(b, 0x02), v.f64())
	case KindString:
		b = append(b, 0x03)
		// Escape 0x00 so the terminator is unambiguous.
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			if c == 0x00 {
				b = append(b, 0x00, 0xFF)
			} else {
				b = append(b, c)
			}
		}
		return append(b, 0x00, 0x00)
	case KindTime:
		b = append(b, 0x04)
		return appendUint64(b, uint64(v.i)^(1<<63))
	default:
		panic("sqltypes: Key on unknown kind")
	}
}

// intFloor splits i into the largest float64 at or below it and the
// remainder, which is zero wherever IntFloat is exact and below 2^10
// elsewhere (no two adjacent float64s below 2^63 are further apart).
func intFloor(i int64) (float64, int64) {
	f := float64(i) // the nearest float64, which may lie above i
	if f >= 1<<63 || int64(f) > i {
		f = math.Nextafter(f, math.Inf(-1))
	}
	return f, i - int64(f)
}

// appendFloatKey appends f's order-preserving bits; -0 encodes as 0, which
// it equals.
func appendFloatKey(b []byte, f float64) []byte {
	if f == 0 {
		f = 0
	}
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u // negative: flip all bits
	} else {
		u ^= 1 << 63 // positive: flip sign bit
	}
	return appendUint64(b, u)
}

func appendUint64(b []byte, u uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], u)
	return append(b, buf[:]...)
}
