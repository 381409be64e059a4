package sqltypes

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// keyInput reads values off the fuzzer's bytes; an exhausted input reads
// zeros.
type keyInput struct{ data []byte }

func (in *keyInput) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

func (in *keyInput) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = in.byte()
	}
	return binary.BigEndian.Uint64(buf[:])
}

// bigInt draws an integer a few units from ±2^53 … ±2^63, where neighbouring
// float64s are 2 to 1024 apart (2^63 wraps to the ends of int64's range).
func (in *keyInput) bigInt() int64 {
	i := int64(1)<<(53+in.byte()%11) + int64(int8(in.byte()))
	if in.byte()&1 == 1 {
		i = -i
	}
	return i
}

// value draws one value, weighted toward what the encoding special-cases:
// integers past 2^53, the float64s next to them, NULL, strings holding 0x00
// or 0xFF and long enough to spill the stack buffer, and twin — the value at the
// same position of the other row — repeated or in its other numeric kind.
func (in *keyInput) value(twin Value) Value {
	switch in.byte() % 10 {
	case 0:
		return Null
	case 1:
		return NewBool(in.byte()&1 == 1)
	case 2:
		return NewInt(int64(in.u64()))
	case 3:
		return NewInt(in.bigInt())
	case 4:
		f := math.Float64frombits(in.u64())
		if math.IsNaN(f) {
			// NaN compares equal to everything, so it has no place in an
			// order; take -0, which must key as 0.
			f = math.Copysign(0, -1)
		}
		return NewFloat(f)
	case 5:
		f := float64(in.bigInt())
		switch in.byte() % 3 {
		case 1:
			f = math.Nextafter(f, math.Inf(-1))
		case 2:
			f = math.Nextafter(f, math.Inf(1))
		}
		return NewFloat(f)
	case 6:
		s := make([]byte, in.byte())
		for i := range s {
			// Few distinct bytes, among them the escaped 0x00 and the 0xFF
			// that AppendKeyEnd appends.
			s[i] = []byte{0x00, 0x01, 0xFF, 'a'}[in.byte()%4]
		}
		return NewString(string(s))
	case 7:
		return NewTime(time.Unix(0, int64(in.u64())))
	case 8:
		return twin
	default:
		switch twin.Kind() {
		case KindInt:
			if f, ok := twin.ExactFloat(); ok {
				return NewFloat(f)
			}
		case KindFloat:
			if f := twin.Float(); f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
				return NewInt(int64(f))
			}
		}
		return twin
	}
}

// compareRows orders rows element-wise by Value.Compare, a row before the
// rows it is a proper prefix of.
func compareRows(a, b Row) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// FuzzKeyEncoding holds Key to Value.Compare. One input is two rows of up to
// four values; their keys must compare with bytes.Compare as the rows do
// element-wise (so equal keys are exactly equal rows), AppendKey into a
// caller's buffer must give Key's bytes past the stack buffer too, and for
// every prefix p of the first row the second row's key must lie in
// [Key(p), AppendKeyEnd(p)) exactly when its leading values equal p — the
// range an index seek on p reads.
func FuzzKeyEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &keyInput{data: data}
		a, b := make(Row, in.byte()%5), make(Row, in.byte()%5)
		for i := range a {
			a[i] = in.value(Null)
		}
		for i := range b {
			twin := Null
			if i < len(a) {
				twin = a[i]
			}
			b[i] = in.value(twin)
		}

		ka, kb := Key(a...), Key(b...)
		if got, want := sign(strings.Compare(ka, kb)), compareRows(a, b); got != want {
			t.Fatalf("%v vs %v: keys compare %d, values %d\n%x\n%x", a, b, got, want, ka, kb)
		}
		if ka != string(AppendKey(nil, a...)) {
			t.Fatalf("%v: Key and AppendKey disagree", a)
		}
		for n := 0; n <= len(a); n++ {
			p := a[:n]
			start, end := Key(p...), string(AppendKeyEnd(nil, p...))
			inside := start <= kb && kb < end
			if want := len(b) >= n && compareRows(b[:n], p) == 0; inside != want {
				t.Fatalf("%v in [Key, AppendKeyEnd) of %v = %v, want %v\n%x\n%x\n%x", b, p, inside, want, kb, start, end)
			}
		}
	})
}
