package sqltypes

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "BIGINT",
		KindFloat: "DOUBLE", KindString: "VARCHAR", KindTime: "TIMESTAMP",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(42).Int() != 42 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Float on int")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
	ts := time.Date(2004, 6, 13, 10, 0, 0, 0, time.UTC)
	if !NewTime(ts).Time().Equal(ts) {
		t.Error("Time accessor")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Str on int", func() { NewInt(1).Str() })
	mustPanic("Bool on int", func() { NewInt(1).Bool() })
	mustPanic("Time on int", func() { NewInt(1).Time() })
	mustPanic("Float on string", func() { NewString("x").Float() })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(1.0), NewInt(1), 0},
		{NewFloat(2.5), NewInt(2), 1},
		// Past 2^53 a float64 cannot hold every integer: the comparison
		// stays exact instead of rounding the integer.
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1},
		{NewFloat(1<<53 + 2), NewInt(1<<53 + 1), 1},
		{NewInt(1 << 53), NewFloat(1 << 53), 0},
		{NewInt(math.MaxInt64), NewFloat(1 << 63), -1},
		{NewInt(math.MinInt64), NewFloat(-(1 << 63)), 0},
		{NewInt(-3), NewFloat(-2.5), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	vals := sampleValues()
	for _, a := range vals {
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Fatalf("Compare not antisymmetric: %v vs %v", a, b)
			}
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewString("o'hare"), "'o''hare'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	if NewString("x").Display() != "x" {
		t.Error("Display should not quote strings")
	}
}

func TestRowCloneEqual(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[0] = NewInt(2)
	if r.Equal(c) {
		t.Fatal("clone shares storage")
	}
	if r.Equal(Row{NewInt(1)}) {
		t.Fatal("rows of different length compared equal")
	}
	var nilRow Row
	if nilRow.Clone() != nil {
		t.Fatal("Clone(nil) != nil")
	}
	if r.String() != "(1, 'a')" {
		t.Fatalf("Row.String = %s", r.String())
	}
}

// TestKeyOrderPreserving is the core property: bytes.Compare on encoded keys
// must agree with Value.Compare, for single values and composites.
func TestKeyOrderPreserving(t *testing.T) {
	vals := sampleValues()
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := Key(a), Key(b)
			want := a.Compare(b)
			got := bytes.Compare([]byte(ka), []byte(kb))
			if sign(got) != sign(want) {
				t.Errorf("key order mismatch: %v vs %v: Compare=%d bytes=%d", a, b, want, got)
			}
		}
	}
}

func TestKeyCompositeOrder(t *testing.T) {
	a := Key(NewString("ab"), NewInt(5))
	b := Key(NewString("ab"), NewInt(6))
	c := Key(NewString("abc"), NewInt(0))
	if !(a < b) {
		t.Error("composite int order")
	}
	if !(a < c) {
		t.Error("prefix string must sort before longer string")
	}
	// A string containing 0x00 must not be confused with a terminator.
	d := Key(NewString("a\x00b"), NewInt(1))
	e := Key(NewString("a"), NewInt(200))
	if d <= e {
		t.Error("embedded NUL ordering")
	}
}

func TestKeyIntFloatEqual(t *testing.T) {
	if Key(NewInt(7)) != Key(NewFloat(7.0)) {
		t.Error("Key(7) != Key(7.0): numeric keys must unify")
	}
	if Key(NewInt(0)) != Key(NewFloat(math.Copysign(0, -1))) {
		t.Error("Key(0) != Key(-0.0): numeric keys must unify")
	}
	if Key(NewInt(1<<53+1)) == Key(NewInt(1<<53)) {
		t.Error("Key(2^53+1) == Key(2^53): integer keys must stay exact")
	}
}

// A range end is computed once per bounded scan opened, point reads
// included: into a buffer with room it costs nothing. It sorts after every
// key that continues its values and before the key of the next value, here
// the integer just past a float64.
func TestKeyEndAllocatesOnlyItsResult(t *testing.T) {
	vals := Row{NewString("customer"), NewInt(1 << 53)}
	var buf [KeyStackBytes]byte
	var got []byte
	if n := testing.AllocsPerRun(100, func() { got = AppendKeyEnd(buf[:0], vals...) }); n != 0 {
		t.Fatalf("AppendKeyEnd allocates %v times, want 0", n)
	}
	for _, next := range []Value{Null, NewString("\xff"), NewTime(time.Unix(0, -1))} {
		if k := Key(append(vals, next)...); k >= string(got) {
			t.Errorf("key %x continuing the values sorts at or after their end %x", k, got)
		}
	}
	if k := Key(NewString("customer"), NewInt(1<<53+1)); k <= string(got) {
		t.Errorf("key %x of the next value sorts at or before the end %x", k, got)
	}
}

func TestKeyQuickInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := Key(NewInt(a)), Key(NewInt(b))
		return sign(bytes.Compare([]byte(ka), []byte(kb))) == sign(cmpInt(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyQuickFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka, kb := Key(NewFloat(a)), Key(NewFloat(b))
		return sign(bytes.Compare([]byte(ka), []byte(kb))) == sign(cmpFloat(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyQuickStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := Key(NewString(a)), Key(NewString(b))
		want := bytes.Compare([]byte(a), []byte(b))
		return sign(bytes.Compare([]byte(ka), []byte(kb))) == sign(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyEncodesOnTheStack pins the encoder's cost: one allocation (the
// returned string) for a key that fits the stack buffer, and the same bytes
// as AppendKey into a caller's buffer — including for keys that outgrow the
// buffer, where order must still hold across the spill.
func TestKeyEncodesOnTheStack(t *testing.T) {
	pk := Row{NewInt(17), NewString("Customer#000000017"), NewTime(time.Unix(1e6, 999))}
	if got := testing.AllocsPerRun(200, func() { _ = Key(pk...) }); got != 1 {
		t.Errorf("Key allocates %.0f times for a %d-byte key, want 1", got, len(Key(pk...)))
	}
	var buf [256]byte
	if got := testing.AllocsPerRun(200, func() { _ = AppendKey(buf[:0], pk...) }); got != 0 {
		t.Errorf("AppendKey into a caller's buffer allocates %.0f times, want 0", got)
	}
	f := func(a, b string, n, m int64) bool {
		// Long enough to spill: the common prefix alone fills the buffer.
		prefix := strings.Repeat("p", KeyStackBytes)
		ra, rb := Row{NewString(prefix + a), NewInt(n)}, Row{NewString(prefix + b), NewInt(m)}
		ka, kb := Key(ra...), Key(rb...)
		want := strings.Compare(a, b)
		if want == 0 {
			want = cmpInt(n, m)
		}
		return ka == string(AppendKey(nil, ra...)) && sign(strings.Compare(ka, kb)) == sign(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowKey(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	if RowKey(r) != Key(NewInt(1), NewString("x")) {
		t.Error("RowKey disagrees with Key")
	}
}

func sampleValues() []Value {
	rng := rand.New(rand.NewSource(42))
	vals := []Value{
		Null, NewBool(false), NewBool(true),
		NewInt(math.MinInt64), NewInt(-1), NewInt(0), NewInt(1), NewInt(math.MaxInt64),
		NewFloat(math.Inf(-1)), NewFloat(-1.5), NewFloat(0), NewFloat(1.5), NewFloat(math.Inf(1)),
		NewInt(1 << 53), NewInt(1<<53 + 1), NewFloat(1<<53 + 2), NewInt(-(1 << 53) - 1), NewFloat(-(1 << 53) - 2),
		NewInt(math.MaxInt64 - 1), NewFloat(1 << 63), NewFloat(math.Copysign(0, -1)),
		NewString(""), NewString("a"), NewString("a\x00"), NewString("zz"),
		NewTime(time.Unix(0, 0)), NewTime(time.Unix(1e6, 999)),
	}
	for i := 0; i < 20; i++ {
		vals = append(vals, NewInt(rng.Int63()-rng.Int63()), NewFloat(rng.NormFloat64()*1e6))
	}
	return vals
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// TestValueIs32Bytes pins the datum size: INT and FLOAT share one word, so
// every stored row, result arena and GC mark pass moves four words per value.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("sizeof(Value) = %d, want 32", n)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.MaxFloat64} {
		if got := NewFloat(f).Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).Float() = %v", f, got)
		}
	}
	if !math.IsNaN(NewFloat(math.NaN()).Float()) {
		t.Error("NaN does not survive the shared word")
	}
}

// TestRowHash: equal rows hash alike; a value's kind, its position and each
// of its bits count; a nil row hashes to 0; and a digest, the sum of row
// hashes, does not see the rows' order.
func TestRowHash(t *testing.T) {
	r := Row{NewInt(7), NewString("Customer#7"), NewFloat(-0.5), NewTime(time.Unix(5, 0)), Null, NewBool(true)}
	if r.Hash() != r.Clone().Hash() {
		t.Fatal("a clone hashes differently")
	}
	if (Row)(nil).Hash() != 0 {
		t.Fatal("a nil row does not hash to 0")
	}
	distinct := []Row{
		{NewInt(1)}, {NewFloat(1)}, {NewBool(true)}, {NewTime(time.Unix(0, 1))}, {NewString("1")}, {Null}, {},
		{NewInt(1), NewInt(2)}, {NewInt(2), NewInt(1)}, {NewString("ab"), NewString("c")}, {NewString("a"), NewString("bc")},
		{NewFloat(0)}, {NewFloat(math.Copysign(0, -1))}, {NewInt(1), Null}, {Null, NewInt(1)},
	}
	seen := map[uint64]Row{}
	for _, row := range distinct {
		if prev, ok := seen[row.Hash()]; ok {
			t.Fatalf("%v and %v hash alike", prev, row)
		}
		seen[row.Hash()] = row
	}
	a, b, c := distinct[0], distinct[7], distinct[9]
	if a.Hash()+b.Hash()+c.Hash() != c.Hash()+a.Hash()+b.Hash() {
		t.Fatal("a digest depends on order")
	}
}

func BenchmarkRowHash(b *testing.B) {
	rows := []Row{
		{NewInt(17), NewString("Customer#000000017"), NewInt(4), NewFloat(6324.5)},
		{NewInt(17), NewInt(170), NewFloat(123456.78), NewTime(time.Unix(1e9, 0))},
	}
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += rows[i&1].Hash()
	}
	_ = sum
}
