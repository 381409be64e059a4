package sqlparser

import "testing"

// FuzzParse: no input panics the parser or the scanner; a text that parses as
// a SELECT (or an EXPLAIN of one) has what the statement cache rests on
// (checkShape) — its canonical text is a fixpoint of parse and print, the
// scanner's token values are the parse's literal values by slot (a folded
// unary minus carries its sign to the slot), and splicing them into the
// statement's pieces gives the canonical text without printing it; and an
// INSERT, UPDATE or DELETE has the slots the back end's templates rest on
// (checkSlots). Seeds are
// in testdata/fuzz/FuzzParse; `make fuzz` runs it for ten seconds.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		_, _, scanned := Scan(text, nil, nil)
		stmt, err := Parse(text)
		if err != nil {
			return
		}
		if !scanned {
			t.Fatalf("%q parses but does not scan", text)
		}
		switch s := stmt.(type) {
		case *SelectStmt:
			checkShape(t, text, s)
		case *ExplainStmt:
			checkShape(t, text, s.Stmt)
		default:
			checkDML(t, text, stmt)
		}
	})
}
