package relaxedcc_test

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
)

// scanTexts are the texts the workloads send that a scan reads: a point read
// and a join as mix_zipf issues them, and read_write's UPDATE.
var scanTexts = []struct{ name, sql string }{
	{"point", tpcd.Query(tpcd.KindPoint, 4242, 2*time.Second)},
	{"join", tpcd.Query(tpcd.KindJoin, 4242, 15*time.Second)},
	{"update", "UPDATE Customer SET c_acctbal = 1234.56 WHERE c_custkey = 4242"},
}

// BenchmarkScan times sqlparser.Scan on the workloads' texts beside
// referenceScan, the scanner it replaced, in one binary: the ratio of a
// text's two rows is the speed-up, whatever the host.
func BenchmarkScan(b *testing.B) {
	for _, tc := range scanTexts {
		for _, impl := range []struct {
			name string
			scan func(string, []byte, []sqltypes.Value) ([]byte, []sqltypes.Value, bool)
		}{{"scan", sqlparser.Scan}, {"reference", referenceScan}} {
			b.Run(tc.name+"/"+impl.name, func(b *testing.B) {
				var kb [256]byte
				var vb [8]sqltypes.Value
				b.SetBytes(int64(len(tc.sql)))
				for i := 0; i < b.N; i++ {
					if _, _, ok := impl.scan(tc.sql, kb[:0], vb[:0]); !ok {
						b.Fatalf("%q does not scan", tc.sql)
					}
				}
			})
		}
	}
}

// FuzzScan holds sqlparser.Scan to referenceScan byte for byte and value for
// value, and the scan of every value's printed literal (ScanLiteral, what a
// shipped read carries in place of its text) to referenceScan of that text.
// `make fuzz` runs it for ten seconds.
func FuzzScan(f *testing.F) {
	for _, tc := range scanTexts {
		f.Add(tc.sql)
	}
	for _, s := range []string{
		"", "--", "-- x\nSELECT", "SELECT a FROM t WHERE a = -9223372036854775808",
		"SELECT 9223372036854775807, 9223372036854775808, 1.5.5, .5, 5., 00012",
		"SELECT 'it''s', '', '''', 'open", "a<=b>=c<>d!=e<f>g!h", "é", "x\x00y",
		"SELECT 1e5, 0x10, 12abc, abc12, _a", "UPDATE t SET a = -(-0.0) WHERE b = - -5;",
		"SELECT 179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		key, vals, ok := sqlparser.Scan(text, nil, nil)
		rkey, rvals, rok := referenceScan(text, nil, nil)
		if ok != rok {
			t.Fatalf("%q: scanned %v, reference %v", text, ok, rok)
		}
		if !ok {
			return
		}
		sameScan(t, text, key, vals, rkey, rvals)
		for _, v := range vals {
			for _, v := range []sqltypes.Value{v, negated(v)} {
				lit := string(sqlparser.AppendLiteral(nil, v))
				key, vals, ok := sqlparser.ScanLiteral(nil, nil, v)
				rkey, rvals, rok := referenceScan(lit, nil, nil)
				if ok != rok {
					t.Fatalf("%v prints as %q: scanned %v, reference %v", v, lit, ok, rok)
				}
				if ok {
					sameScan(t, lit, key, vals, rkey, rvals)
				}
			}
		}
	})
}

func negated(v sqltypes.Value) sqltypes.Value {
	switch v.Kind() {
	case sqltypes.KindInt:
		return sqltypes.NewInt(-v.Int())
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(-v.Float())
	}
	return sqltypes.NewString(v.Str() + "'")
}

func sameScan(t *testing.T, text string, key []byte, vals []sqltypes.Value, rkey []byte, rvals []sqltypes.Value) {
	t.Helper()
	if !bytes.Equal(key, rkey) {
		t.Fatalf("%q: skeleton %q, reference %q", text, key, rkey)
	}
	if len(vals) != len(rvals) {
		t.Fatalf("%q: %d values, reference %d", text, len(vals), len(rvals))
	}
	for i, v := range vals {
		r := rvals[i]
		same := v.Kind() == r.Kind()
		switch {
		case !same:
		case v.Kind() == sqltypes.KindFloat:
			same = math.Float64bits(v.Float()) == math.Float64bits(r.Float())
		case v.Kind() == sqltypes.KindInt:
			same = v.Int() == r.Int()
		default:
			same = v.Str() == r.Str()
		}
		if !same {
			t.Fatalf("%q: value %d is %v, reference %v", text, i, v, r)
		}
	}
}

// referenceScan is sqlparser.Scan as it was before the tokenizer became
// table-driven: a branch chain per byte and a token struct returned from
// every call. It stays the specification the fast scanner is fuzzed against.
func referenceScan(sql string, key []byte, vals []sqltypes.Value) ([]byte, []sqltypes.Value, bool) {
	s := refScanner{src: sql}
	for {
		t, err := s.next()
		if err != nil {
			return nil, nil, false
		}
		switch t.kind {
		case refEOF:
			return key, vals, true
		case refNumber:
			v, err := refNumberValue(t.text)
			if err != nil {
				return nil, nil, false
			}
			vals = append(vals, v)
			if v.Kind() == sqltypes.KindFloat {
				key = append(key, 2)
			} else {
				key = append(key, 1)
			}
		case refString:
			vals = append(vals, sqltypes.NewString(t.text))
			key = append(key, 3)
		default:
			key = append(key, t.text...)
		}
		key = append(key, ' ')
	}
}

type refKind int

const (
	refEOF refKind = iota
	refIdent
	refNumber
	refString
	refPunct
)

type refToken struct {
	kind refKind
	text string
	pos  int
	slot int
}

type refScanner struct {
	src   string
	i     int
	slots int
}

func (s *refScanner) next() (refToken, error) {
	input, n := s.src, len(s.src)
	for s.i < n {
		c := input[s.i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.i++
			continue
		case c == '-' && s.i+1 < n && input[s.i+1] == '-':
			for s.i < n && input[s.i] != '\n' {
				s.i++
			}
			continue
		}
		start := s.i
		switch {
		case refIdentStart(c):
			for s.i < n && (refIdentStart(input[s.i]) || refDigit(input[s.i])) {
				s.i++
			}
			return refToken{kind: refIdent, text: input[start:s.i], pos: start}, nil
		case refDigit(c) || (c == '.' && s.i+1 < n && refDigit(input[s.i+1])):
			seenDot := false
			for s.i < n {
				d := input[s.i]
				if d == '.' && !seenDot {
					seenDot = true
				} else if !refDigit(d) {
					break
				}
				s.i++
			}
			s.slots++
			return refToken{kind: refNumber, text: input[start:s.i], pos: start, slot: s.slots}, nil
		case c == '\'':
			text, end, ok := refQuoted(input, start+1)
			if !ok {
				return refToken{}, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			s.i = end
			s.slots++
			return refToken{kind: refString, text: text, pos: start, slot: s.slots}, nil
		}
		text, width := input[start:start+1], 1
		switch rest := input[start:]; {
		case strings.HasPrefix(rest, "<="), strings.HasPrefix(rest, ">="), strings.HasPrefix(rest, "<>"):
			text, width = rest[:2], 2
		case strings.HasPrefix(rest, "!="):
			text, width = "<>", 2
		case strings.IndexByte("=(),.*+-/<>;", c) < 0:
			return refToken{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
		}
		s.i += width
		return refToken{kind: refPunct, text: text, pos: start}, nil
	}
	return refToken{kind: refEOF, pos: n}, nil
}

func refQuoted(input string, i int) (text string, end int, ok bool) {
	start := i
	var sb strings.Builder
	for ; i < len(input); i++ {
		if input[i] != '\'' {
			continue
		}
		if i+1 < len(input) && input[i+1] == '\'' {
			sb.WriteString(input[start : i+1])
			i++
			start = i + 1
			continue
		}
		if sb.Len() == 0 {
			return input[start:i], i + 1, true
		}
		sb.WriteString(input[start:i])
		return sb.String(), i + 1, true
	}
	return "", 0, false
}

func refNumberValue(text string) (sqltypes.Value, error) {
	if strings.IndexByte(text, '.') >= 0 {
		f, err := strconv.ParseFloat(text, 64)
		return sqltypes.NewFloat(f), err
	}
	n, err := strconv.ParseInt(text, 10, 64)
	return sqltypes.NewInt(n), err
}

func refIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func refDigit(c byte) bool { return '0' <= c && c <= '9' }
