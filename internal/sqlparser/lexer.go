// Package sqlparser implements the SQL dialect used by both servers: a
// classic SELECT-FROM-WHERE core (joins, subqueries, grouping, ordering),
// DML, a little DDL — and the paper's extensions: the CURRENCY clause
// (Section 2) and BEGIN/END TIMEORDERED session brackets (Section 2.3).
package sqlparser

import (
	"bytes"
	"fmt"
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

// scanner cuts the input into tokens one at a time. The parser's lex and
// the statement cache's Scan both run on it, so the skeleton a text is filed
// under and the tokens its parse saw cannot disagree. It allocates only for a
// string token with an escaped quote in it.
type scanner struct {
	src   string
	i     int
	slots int
}

// next returns the next token, tokEOF at the end of the input. SQL comments
// (-- to end of line) are skipped. It returns an error for unterminated
// strings or stray bytes.
func (s *scanner) next() (token, error) {
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
		case isIdentStart(c):
			for s.i < n && isIdentPart(input[s.i]) {
				s.i++
			}
			return token{kind: tokIdent, text: input[start:s.i], pos: start}, nil
		case isDigit(c) || (c == '.' && s.i+1 < n && isDigit(input[s.i+1])):
			seenDot := false
			for s.i < n {
				d := input[s.i]
				if d == '.' && !seenDot {
					seenDot = true
				} else if !isDigit(d) {
					break
				}
				s.i++
			}
			s.slots++
			return token{kind: tokNumber, text: input[start:s.i], pos: start, slot: s.slots}, nil
		case c == '\'':
			text, end, ok := quoted(input, start+1)
			if !ok {
				return token{}, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			s.i = end
			s.slots++
			return token{kind: tokString, text: text, pos: start, slot: s.slots}, nil
		}
		// Multi-char operators first; != is spelled <> from here on.
		text, width := input[start:start+1], 1
		switch rest := input[start:]; {
		case strings.HasPrefix(rest, "<="), strings.HasPrefix(rest, ">="), strings.HasPrefix(rest, "<>"):
			text, width = rest[:2], 2
		case strings.HasPrefix(rest, "!="):
			text, width = "<>", 2
		case strings.IndexByte("=(),.*+-/<>;", c) < 0:
			return token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
		}
		s.i += width
		return token{kind: tokPunct, text: text, pos: start}, nil
	}
	return token{kind: tokEOF, pos: n}, nil
}

// quoted reads the body of a string literal whose opening quote sits just
// before input[i]: the text with doubled quotes undone, the offset after the
// closing quote, and whether there was one. A body without a doubled quote
// is a slice of the input.
func quoted(input string, i int) (text string, end int, ok bool) {
	start := i
	var sb strings.Builder
	for ; i < len(input); i++ {
		if input[i] != '\'' {
			continue
		}
		if i+1 < len(input) && input[i+1] == '\'' { // escaped quote
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

// lex splits input into tokens, ending with tokEOF.
func lex(input string) ([]token, error) {
	var toks []token
	s := scanner{src: input}
	for {
		t, err := s.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
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
		t, err := s.next()
		if err != nil {
			return nil, nil, false
		}
		switch t.kind {
		case tokEOF:
			return key, vals, true
		case tokNumber:
			v, err := numberValue(t.text)
			if err != nil {
				return nil, nil, false
			}
			vals = append(vals, v)
			if v.Kind() == sqltypes.KindFloat {
				key = append(key, markFloat)
			} else {
				key = append(key, markInt)
			}
		case tokString:
			vals = append(vals, sqltypes.NewString(t.text))
			key = append(key, markString)
		default:
			key = append(key, t.text...)
		}
		key = append(key, ' ')
	}
}

// IsDML reports whether a skeleton (Scan) starts with INSERT, UPDATE or DELETE.
func IsDML(skel []byte) bool {
	word, _, _ := bytes.Cut(skel, []byte{' '})
	return bytes.EqualFold(word, []byte("INSERT")) || bytes.EqualFold(word, []byte("UPDATE")) || bytes.EqualFold(word, []byte("DELETE"))
}

// numberValue converts a number token: a FLOAT when it has a decimal point,
// else an INT.
func numberValue(text string) (sqltypes.Value, error) {
	if strings.IndexByte(text, '.') >= 0 {
		f, err := strconv.ParseFloat(text, 64)
		return sqltypes.NewFloat(f), err
	}
	n, err := strconv.ParseInt(text, 10, 64)
	return sqltypes.NewInt(n), err
}

// Identifiers are ASCII: a letter or underscore, then letters, digits and
// underscores. (Testing a byte with unicode.IsLetter took 0xAA, 0xB5 and
// 0xC0–0xFF for letters and cut UTF-8 text into identifiers mid-rune; any
// byte above 0x7F outside a string is now an unexpected character.)
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
