// Package sqlparser implements the SQL dialect used by both servers: a
// classic SELECT-FROM-WHERE core (joins, subqueries, grouping, ordering),
// DML, a little DDL — and the paper's extensions: the CURRENCY clause
// (Section 2) and BEGIN/END TIMEORDERED session brackets (Section 2.3).
package sqlparser

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"relaxedcc/internal/sqltypes"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // operators and punctuation, Text holds the lexeme
)

// token is one lexeme with its source position (for error messages).
type token struct {
	kind tokenKind
	text string
	pos  int
	// slot numbers the statement's number and string tokens from 1 in source
	// order; 0 for every other kind.
	slot int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// isKeyword reports whether the identifier token matches the (case-
// insensitive) keyword.
func (t token) isKeyword(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (t token) isPunct(p string) bool { return t.kind == tokPunct && t.text == p }

// Byte classes: what the tokenizer does at a byte is one lookup in class.
const (
	cBad     uint8 = iota // no token starts here
	cSpace                // skipped
	cLetter               // starts an identifier: a letter or underscore
	cDigit                // starts a number, continues an identifier
	cQuote                // starts a string
	cPunct                // a one-byte operator or punctuation mark
	cMinus                // "-", or a comment to the end of the line as "--"
	cDot                  // ".", or a number when a digit follows
	cLess                 // "<", "<=" or "<>"
	cGreater              // ">" or ">="
	cBang                 // only in "!=", which reads as "<>"
)

// Identifiers are ASCII: a letter or underscore, then letters, digits and
// underscores. (Testing a byte with unicode.IsLetter took 0xAA, 0xB5 and
// 0xC0–0xFF for letters and cut UTF-8 text into identifiers mid-rune; any
// byte above 0x7F outside a string is now an unexpected character.)
var class = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = cLetter, cLetter
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit
	}
	for _, c := range "=(),*+/;" {
		t[c] = cPunct
	}
	t['_'], t['\''], t['-'], t['.'], t['<'], t['>'], t['!'] = cLetter, cQuote, cMinus, cDot, cLess, cGreater, cBang
	t[' '], t['\t'], t['\n'], t['\r'] = cSpace, cSpace, cSpace, cSpace
	return t
}()

// scanner cuts the input into tokens one at a time. The parser's lex and
// the statement cache's Scan both run on it, so the skeleton a text is filed
// under and the tokens its parse saw cannot disagree. It allocates only for a
// string token with an escaped quote in it.
type scanner struct {
	src string
	// i is the offset after the last token read, start that token's offset.
	i, start int
	// slots counts the number and string tokens read.
	slots int
}

// next returns the kind and text of the next token, tokEOF at the end of the
// input. SQL comments (-- to end of line) are skipped. It returns an error
// for unterminated strings or stray bytes.
func (s *scanner) next() (tokenKind, string, error) {
	input, i, n := s.src, s.i, len(s.src)
	for ; i < n; i++ {
		c := input[i]
		cl := class[c]
		if cl == cSpace {
			continue
		}
		start, kind := i, tokPunct
		s.start = start
		i++
		switch cl {
		case cLetter:
			for i < n && (class[input[i]] == cLetter || class[input[i]] == cDigit) {
				i++
			}
			kind = tokIdent
		case cDigit:
			i = number(input, i)
			kind = tokNumber
			s.slots++
		case cQuote:
			text, end, ok := quoted(input, i)
			if !ok {
				return tokEOF, "", fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			s.i = end
			s.slots++
			return tokString, text, nil
		case cPunct:
		case cMinus:
			if i < n && input[i] == '-' {
				if j := strings.IndexByte(input[i:], '\n'); j >= 0 {
					i += j
					continue
				}
				i = n
				continue
			}
		case cDot:
			if i < n && class[input[i]] == cDigit {
				i = number(input, i)
				kind = tokNumber
				s.slots++
			}
		case cLess:
			if i < n && (input[i] == '=' || input[i] == '>') {
				i++
			}
		case cGreater:
			if i < n && input[i] == '=' {
				i++
			}
		case cBang:
			if i < n && input[i] == '=' {
				s.i = i + 1
				return tokPunct, "<>", nil // != is spelled <> from here on
			}
			fallthrough
		default:
			return tokEOF, "", fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
		}
		s.i = i
		return kind, input[start:i], nil
	}
	s.i, s.start = n, n
	return tokEOF, "", nil
}

// number returns the end of the number token whose first digit or point is
// at input[i-1]: digits with at most one decimal point among them.
func number(input string, i int) int {
	dot := input[i-1] == '.'
	for ; i < len(input); i++ {
		if c := input[i]; c == '.' && !dot {
			dot = true
		} else if class[c] != cDigit {
			break
		}
	}
	return i
}

// quoted reads the body of a string literal whose opening quote sits just
// before input[i]: the text with doubled quotes undone, the offset after the
// closing quote, and whether there was one. A body without a doubled quote
// is a slice of the input.
func quoted(input string, i int) (text string, end int, ok bool) {
	var sb strings.Builder
	for {
		j := strings.IndexByte(input[i:], '\'')
		if j < 0 {
			return "", 0, false
		}
		j += i
		if j+1 < len(input) && input[j+1] == '\'' { // escaped quote
			sb.WriteString(input[i : j+1])
			i = j + 2
			continue
		}
		if sb.Len() == 0 {
			return input[i:j], j + 1, true
		}
		sb.WriteString(input[i:j])
		return sb.String(), j + 1, true
	}
}

// lex splits input into tokens, ending with tokEOF.
func lex(input string) ([]token, error) {
	var toks []token
	s := scanner{src: input}
	for {
		kind, text, err := s.next()
		if err != nil {
			return nil, err
		}
		t := token{kind: kind, text: text, pos: s.start}
		if kind == tokNumber || kind == tokString {
			t.slot = s.slots
		}
		toks = append(toks, t)
		if kind == tokEOF {
			return toks, nil
		}
	}
}

// Skeleton marks: what a number or string token leaves in a skeleton key in
// place of its text. No other token can hold these bytes.
const (
	markInt byte = 1 + iota
	markFloat
	markString
)

// Scan reads a statement's raw text once, without parsing or allocating: it
// appends to key the text's skeleton — its tokens, one space after each, a
// number or string token replaced by the mark of its kind — and to vals the
// values of those tokens in source order. Two texts with one skeleton parse
// to the same statement but for the values of their literals, so what was
// worked out for one (see Slots, Pieces) serves the other. ok is false for a
// text the lexer rejects or a number no value holds; such a text goes to the
// parser, which says why.
func Scan(sql string, key []byte, vals []sqltypes.Value) (_ []byte, _ []sqltypes.Value, ok bool) {
	s := scanner{src: sql}
	for {
		kind, text, err := s.next()
		switch {
		case err != nil:
			return nil, nil, false
		case kind == tokEOF:
			return key, vals, true
		case kind == tokNumber:
			if key, vals, ok = appendNumber(key, vals, text); !ok {
				return nil, nil, false
			}
		case kind == tokString:
			vals = append(vals, sqltypes.NewString(text))
			key = append(key, markString, ' ')
		default:
			key = append(append(key, text...), ' ')
		}
	}
}

// ScanLiteral appends to key and vals what Scan reads from v's literal text
// (AppendLiteral) without printing a string: a negative number is a minus and
// its magnitude, an integral FLOAT an INT. ok is false when that text does
// not scan (math.MinInt64's magnitude is no INT) or is no literal's.
func ScanLiteral(key []byte, vals []sqltypes.Value, v sqltypes.Value) (_ []byte, _ []sqltypes.Value, ok bool) {
	switch v.Kind() {
	case sqltypes.KindString:
		return append(key, markString, ' '), append(vals, v), true
	case sqltypes.KindInt, sqltypes.KindFloat:
		var buf [32]byte
		text := string(AppendLiteral(buf[:0], v))
		if text, ok = strings.CutPrefix(text, "-"); ok {
			key = append(key, "- "...)
		}
		if class[text[0]] == cDigit { // not NaN or an infinity
			return appendNumber(key, vals, text)
		}
	}
	return nil, nil, false
}

// appendNumber appends a number token's mark and value.
func appendNumber(key []byte, vals []sqltypes.Value, text string) ([]byte, []sqltypes.Value, bool) {
	v, err := numberValue(text)
	if err != nil {
		return nil, nil, false
	}
	if v.Kind() == sqltypes.KindFloat {
		return append(key, markFloat, ' '), append(vals, v), true
	}
	return append(key, markInt, ' '), append(vals, v), true
}

// IsDML reports whether a skeleton (Scan) starts with INSERT, UPDATE or DELETE.
func IsDML(skel []byte) bool {
	word, _, _ := bytes.Cut(skel, []byte{' '})
	return bytes.EqualFold(word, []byte("INSERT")) || bytes.EqualFold(word, []byte("UPDATE")) || bytes.EqualFold(word, []byte("DELETE"))
}

// numberValue converts a number token: a FLOAT when it has a decimal point,
// else an INT. An INT that fits is summed here, digit by digit.
func numberValue(text string) (sqltypes.Value, error) {
	var n int64
	for i := 0; i < len(text); i++ {
		d := int64(text[i]) - '0'
		if d < 0 || d > 9 || n > (math.MaxInt64-d)/10 {
			if strings.IndexByte(text, '.') >= 0 {
				return floatValue(text)
			}
			_, err := strconv.ParseInt(text, 10, 64)
			return sqltypes.Value{}, err
		}
		n = n*10 + d
	}
	return sqltypes.NewInt(n), nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// floatValue converts a FLOAT token, digits with one decimal point. With at
// most 15 significant digits and at most 22 after the point, the token is
// its digits as an integer over a power of ten, both exact float64s, so the
// one correctly rounded division is strconv.ParseFloat's answer (Clinger's
// fast path). Any other token goes to ParseFloat.
func floatValue(text string) (sqltypes.Value, error) {
	var m uint64
	digits, frac, point := 0, 0, false
	for i := 0; i < len(text) && digits <= 15; i++ {
		switch c := text[i]; {
		case c == '.':
			point = true
		case point:
			frac++
			fallthrough
		default:
			if m != 0 || c != '0' {
				m = m*10 + uint64(c-'0')
				digits++
			}
		}
	}
	if digits <= 15 && frac < len(pow10) {
		return sqltypes.NewFloat(float64(m) / pow10[frac]), nil
	}
	f, err := strconv.ParseFloat(text, 64)
	return sqltypes.NewFloat(f), err
}
