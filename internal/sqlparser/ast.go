package sqlparser

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"

	"relaxedcc/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression.
type Expr interface {
	expr()
	// SQL renders the expression back to SQL text (used to build remote
	// queries and for diagnostics).
	SQL() string
}

// SelectStmt is a Select-From-Where block, possibly with a currency clause
// (which, per the paper, occurs last in the block).
type SelectStmt struct {
	Distinct bool
	Top      int64 // 0 = no TOP
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Currency *CurrencyClause
	// Slots describes the literal tokens of the text the statement was parsed
	// from; set on the outermost block only.
	Slots Slots
}

func (*SelectStmt) stmt() {}

// Slots describes the number and string tokens of a statement's text,
// numbered from 1 in source order, as the parser used them. It is the same
// for every text with the same skeleton (see Scan). Only the first 64 tokens
// are tracked: a statement with more is not shared across literals.
type Slots struct {
	// N is how many number and string tokens the text has.
	N int
	// Lits has bit i set when token i+1 became a Literal node; the others
	// are TOP counts and currency bounds.
	Lits uint64
	// Neg has bit i set when that literal is minus its token's value: the
	// parser folded a unary minus into it.
	Neg uint64
}

// Bind turns the token values Scan read from a text into the values of the
// statement's Literal nodes, by slot: it negates where the parser did.
func (s Slots) Bind(vals []sqltypes.Value) {
	for neg := s.Neg; neg != 0; neg &= neg - 1 {
		if i := bits.TrailingZeros64(neg); i < len(vals) {
			vals[i] = negate(vals[i])
		}
	}
}

// negate is the folded unary minus. Zero stays positive: "-0" would read
// back as the integer 0.
func negate(v sqltypes.Value) sqltypes.Value {
	if v.Kind() == sqltypes.KindInt {
		return sqltypes.NewInt(-v.Int())
	}
	if v.Float() == 0 {
		return sqltypes.NewFloat(0)
	}
	return sqltypes.NewFloat(-v.Float())
}

// SelectItem is one projection item. Star items select every column,
// optionally qualified (T.*).
type SelectItem struct {
	Star      bool
	StarTable string
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is an entry in the FROM clause.
type TableRef interface {
	tableRef()
}

// TableName references a base table or view, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableRef() {}

// Binding returns the name the table is known by in the block: its alias if
// present, else the table name.
func (t *TableName) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// SubqueryRef is a derived table in the FROM clause.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryRef) tableRef() {}

// JoinRef is an explicit JOIN with an ON condition.
type JoinRef struct {
	Left  TableRef
	Right TableRef
	On    Expr
}

func (*JoinRef) tableRef() {}

// CurrencyClause is the paper's proposed SQL extension: a list of triples,
// each giving a staleness bound for a consistency class of tables, with
// optional grouping columns ("BY R.isbn").
type CurrencyClause struct {
	Triples []CurrencyTriple
}

// CurrencyTriple is one (bound, consistency class, grouping columns) triple.
type CurrencyTriple struct {
	Bound  time.Duration
	Tables []string // table names or block-level aliases
	By     []ColumnRef
}

// SQL renders the clause.
func (c *CurrencyClause) SQL() string {
	var parts []string
	for _, t := range c.Triples {
		s := fmt.Sprintf("%s ON (%s)", formatBound(t.Bound), strings.Join(t.Tables, ", "))
		if len(t.By) > 0 {
			var cols []string
			for _, b := range t.By {
				cols = append(cols, b.SQL())
			}
			s += " BY " + strings.Join(cols, ", ")
		}
		parts = append(parts, s)
	}
	return "CURRENCY " + strings.Join(parts, ", ")
}

func formatBound(d time.Duration) string {
	switch {
	case d == 0:
		return "0 SEC"
	case d%time.Hour == 0:
		return fmt.Sprintf("%d HOUR", d/time.Hour)
	case d%time.Minute == 0:
		return fmt.Sprintf("%d MIN", d/time.Minute)
	case d%time.Second == 0:
		return fmt.Sprintf("%d SEC", d/time.Second)
	case d%time.Millisecond == 0:
		return fmt.Sprintf("%d MS", d/time.Millisecond)
	default:
		// Below a millisecond the bound is printed as a fraction of one (the
		// parser rounds to the nanosecond), so the text reads back as it was.
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', -1, 64) + " MS"
	}
}

// InsertStmt is INSERT INTO t (cols) VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	// Slots describes the literal tokens of the text (see SelectStmt.Slots).
	Slots Slots
}

func (*InsertStmt) stmt() {}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE t SET ... WHERE ...
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
	Slots Slots
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM t WHERE ...
type DeleteStmt struct {
	Table string
	Where Expr
	Slots Slots
}

func (*DeleteStmt) stmt() {}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqltypes.Kind
	NotNull    bool
	PrimaryKey bool // column-level PRIMARY KEY shorthand
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Table      string
	Columns    []ColumnDef
	PrimaryKey []string // table-level PRIMARY KEY(...)
}

func (*CreateTableStmt) stmt() {}

// CreateIndexStmt is CREATE [UNIQUE] [CLUSTERED] INDEX name ON t (cols).
type CreateIndexStmt struct {
	Name      string
	Table     string
	Columns   []string
	Unique    bool
	Clustered bool
}

func (*CreateIndexStmt) stmt() {}

// BeginTimeOrderedStmt opens a timeline-consistency bracket (Section 2.3).
type BeginTimeOrderedStmt struct{}

func (*BeginTimeOrderedStmt) stmt() {}

// EndTimeOrderedStmt closes a timeline-consistency bracket.
type EndTimeOrderedStmt struct{}

func (*EndTimeOrderedStmt) stmt() {}

// ExplainStmt wraps a SELECT for plan inspection. EXPLAIN shows the chosen
// plan without executing; EXPLAIN ANALYZE (Analyze true) runs the statement
// and reports the annotated trace — per-node time, rows, and currency-guard
// verdicts.
type ExplainStmt struct {
	Analyze bool
	Stmt    *SelectStmt
}

func (*ExplainStmt) stmt() {}

// ---- Expressions ----

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string
	Column string
}

func (*ColumnRef) expr() {}

// SQL implements Expr.
func (c *ColumnRef) SQL() string { return exprSQL(c) }

// Literal is a constant value.
type Literal struct {
	Val sqltypes.Value
	// Slot is the ordinal, from 1, of the number or string token the literal
	// was parsed from; 0 for one that came from no such token (NULL, TRUE,
	// FALSE, a bound parameter, a predicate the planner made up).
	Slot int
}

func (*Literal) expr() {}

// Value is the literal's value in an execution running with params, a
// statement's literal values by slot: a slot literal's is read from there, so
// one compiled expression serves every statement that differs from the one it
// was compiled for in literals only. With no params (a plan run for the
// statement it was made from) every literal answers with its own value.
func (l *Literal) Value(params []sqltypes.Value) sqltypes.Value {
	if l.Slot > 0 && params != nil {
		return params[l.Slot-1]
	}
	return l.Val
}

// Kind is the kind of the literal's value. A text's skeleton fixes it, so
// unlike the value it is the same for every statement a plan is shared by.
func (l *Literal) Kind() sqltypes.Kind { return l.Val.Kind() }

// SQL implements Expr.
func (l *Literal) SQL() string { return exprSQL(l) }

// AppendLiteral appends v the way the lexer reads it back: like
// Value.String, but a FLOAT is never in exponent form, which the lexer has no
// token for.
func AppendLiteral(dst []byte, v sqltypes.Value) []byte {
	switch v.Kind() {
	case sqltypes.KindInt:
		return strconv.AppendInt(dst, v.Int(), 10)
	case sqltypes.KindFloat:
		dst = strconv.AppendFloat(dst, v.Float(), 'f', -1, 64)
		if math.Abs(v.Float()) >= 1e18 {
			dst = append(dst, ".0"...) // digits alone would be an INT no int64 holds
		}
		return dst
	case sqltypes.KindString:
		dst = append(dst, '\'')
		for s := v.Str(); ; {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				return append(append(dst, s...), '\'')
			}
			dst = append(append(dst, s[:i+1]...), '\'')
			s = s[i+1:]
		}
	default:
		return append(dst, v.String()...)
	}
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAnd BinOp = iota
	OpOr
	OpEQ
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String renders the operator as SQL.
func (op BinOp) String() string {
	switch op {
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return fmt.Sprintf("BinOp(%d)", int(op))
	}
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op          BinOp
	Left, Right Expr
}

func (*BinaryExpr) expr() {}

// SQL implements Expr.
func (b *BinaryExpr) SQL() string { return exprSQL(b) }

// NotExpr is logical negation.
type NotExpr struct {
	Inner Expr
}

func (*NotExpr) expr() {}

// SQL implements Expr.
func (n *NotExpr) SQL() string { return exprSQL(n) }

// NegExpr is arithmetic negation.
type NegExpr struct {
	Inner Expr
}

func (*NegExpr) expr() {}

// SQL implements Expr.
func (n *NegExpr) SQL() string { return exprSQL(n) }

// BetweenExpr is x BETWEEN lo AND hi.
type BetweenExpr struct {
	Expr   Expr
	Lo, Hi Expr
	Not    bool
}

func (*BetweenExpr) expr() {}

// SQL implements Expr.
func (b *BetweenExpr) SQL() string { return exprSQL(b) }

// InExpr is x IN (list) or x IN (subquery).
type InExpr struct {
	Expr     Expr
	List     []Expr
	Subquery *SelectStmt
	Not      bool
}

func (*InExpr) expr() {}

// SQL implements Expr.
func (e *InExpr) SQL() string { return exprSQL(e) }

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Subquery *SelectStmt
	Not      bool
}

func (*ExistsExpr) expr() {}

// SQL implements Expr.
func (e *ExistsExpr) SQL() string { return exprSQL(e) }

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

func (*IsNullExpr) expr() {}

// SQL implements Expr.
func (e *IsNullExpr) SQL() string { return exprSQL(e) }

// FuncExpr is a function call: aggregates (COUNT, SUM, AVG, MIN, MAX) or
// scalar functions (GETDATE).
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
	Star bool // COUNT(*)
}

func (*FuncExpr) expr() {}

// SQL implements Expr.
func (f *FuncExpr) SQL() string { return exprSQL(f) }

// IsAggregate reports whether the function is one of the aggregate
// functions.
func (f *FuncExpr) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// SelectSQL renders a SELECT statement back to SQL text. The output re-parses
// to an equivalent statement; it is used to construct remote queries.
func SelectSQL(s *SelectStmt) string {
	var p printer
	p.sel(s)
	return string(p.buf)
}

// Pieces is a SQL text cut at its slot literals: Text[0], the literal of slot
// Slots[0], Text[1], and so on — one more text than slots. The text of a
// statement that differs from the printed one in literals only is spliced
// from it, not printed from a parse of its own.
type Pieces struct {
	Text  []string
	Slots []int
}

// SelectPieces is SelectSQL cut at the statement's slot literals.
func SelectPieces(s *SelectStmt) Pieces {
	p := printer{cut: true}
	p.sel(s)
	p.out.Text = append(p.out.Text, string(p.buf))
	return p.out
}

// Splice puts the text together around the literals of params (a statement's
// literal values by slot, see Slots.Bind), each formatted as Literal.SQL
// formats it. One allocation for a text that fits the stack buffer.
func (p Pieces) Splice(params []sqltypes.Value) string {
	var stack [512]byte
	buf := stack[:0]
	for i, slot := range p.Slots {
		buf = AppendLiteral(append(buf, p.Text[i]...), params[slot-1])
	}
	return string(append(buf, p.Text[len(p.Slots)]...))
}

// Scanned is a SELECT as the cache ships it to the back end: the skeleton and
// token values Scan reads from its text, and what the text is made of, for a
// reader that must parse it after all (Text). A nil Skel ships the text
// alone: the reader scans it.
type Scanned struct {
	Skel []byte
	Vals []sqltypes.Value
	// SQL is the text of a run without parameters; with Params it is Pieces
	// spliced around them.
	SQL    string
	Pieces Pieces
	Params []sqltypes.Value
}

// Text returns the statement's text, spliced when it has parameters.
func (q *Scanned) Text() string {
	if q.Params == nil || len(q.Pieces.Slots) == 0 {
		return q.SQL
	}
	return q.Pieces.Splice(q.Params)
}

// PieceScan is a text and its pieces scanned once (ScanPieces).
type PieceScan struct {
	whole  scanned   // the text's own scan
	pieces []scanned // each piece's, nil when the text is not to be cut
	slots  []int
}

type scanned struct {
	key  []byte
	vals []sqltypes.Value
	ok   bool
}

// ScanPieces scans sql, and the pieces p cut it into, once. What Scan reads
// from p spliced around any parameters is then the pieces' scans and the
// parameters' literals' (ScanLiteral) in turn — unless a literal could run
// into the token of a piece beside it: a piece before a slot that ends in an
// identifier byte, a point, a minus or a quote, or one after a slot that
// starts with an identifier byte, a point or a quote (or is empty between
// two slots). Such a text is never cut.
func ScanPieces(sql string, p Pieces) *PieceScan {
	ps := &PieceScan{slots: p.Slots}
	ps.whole.key, ps.whole.vals, ps.whole.ok = Scan(sql, nil, nil)
	for i, text := range p.Text {
		var c scanned
		c.key, c.vals, c.ok = Scan(text, nil, nil)
		before, after := i < len(p.Slots), i > 0
		if !c.ok || text == "" && before && after ||
			text != "" && (before && joins(text[len(text)-1], true) || after && joins(text[0], false)) {
			ps.pieces = nil
			break
		}
		ps.pieces = append(ps.pieces, c)
	}
	return ps
}

// joins reports whether a literal token could run into the token that c
// ends (before the literal) or starts (after it).
func joins(c byte, before bool) bool {
	switch class[c] {
	case cLetter, cDigit, cDot, cQuote:
		return true
	case cMinus:
		return before
	}
	return false
}

// Append appends to key and vals what Scan reads from the text a run with
// params ships (see Scanned): the text's own scan for nil params. ok is false
// when that text does not scan, or is not to be cut and has slots: it ships
// as text.
func (ps *PieceScan) Append(key []byte, vals, params []sqltypes.Value) (_ []byte, _ []sqltypes.Value, ok bool) {
	if params == nil || len(ps.slots) == 0 {
		return append(key, ps.whole.key...), append(vals, ps.whole.vals...), ps.whole.ok
	}
	if ps.pieces == nil {
		return nil, nil, false
	}
	for i, slot := range ps.slots {
		key, vals = append(key, ps.pieces[i].key...), append(vals, ps.pieces[i].vals...)
		if key, vals, ok = ScanLiteral(key, vals, params[slot-1]); !ok {
			return nil, nil, false
		}
	}
	last := ps.pieces[len(ps.slots)]
	return append(key, last.key...), append(vals, last.vals...), true
}

// printer renders SQL text into one buffer; every SQL method and SelectSQL
// run on it. With cut set it ends a piece at each slot literal in place of
// printing it.
type printer struct {
	buf []byte
	cut bool
	out Pieces
}

func exprSQL(e Expr) string {
	var p printer
	p.expr(e)
	return string(p.buf)
}

func (p *printer) str(parts ...string) {
	for _, s := range parts {
		p.buf = append(p.buf, s...)
	}
}

// list prints n comma-separated items.
func (p *printer) list(n int, item func(i int)) {
	for i := 0; i < n; i++ {
		if i > 0 {
			p.str(", ")
		}
		item(i)
	}
}

func not(b bool) string {
	if b {
		return "NOT "
	}
	return ""
}

func (p *printer) expr(e Expr) {
	switch e := e.(type) {
	case *ColumnRef:
		if e.Table != "" {
			p.str(e.Table, ".")
		}
		p.str(e.Column)
	case *Literal:
		if p.cut && e.Slot > 0 {
			p.out.Text = append(p.out.Text, string(p.buf))
			p.out.Slots = append(p.out.Slots, e.Slot)
			p.buf = p.buf[:0]
			return
		}
		p.buf = AppendLiteral(p.buf, e.Val)
	case *BinaryExpr:
		p.str("(")
		p.expr(e.Left)
		p.str(" ", e.Op.String(), " ")
		p.expr(e.Right)
		p.str(")")
	case *NotExpr:
		p.str("(NOT ")
		p.expr(e.Inner)
		p.str(")")
	case *NegExpr:
		p.str("(-")
		p.expr(e.Inner)
		p.str(")")
	case *BetweenExpr:
		p.str("(")
		p.expr(e.Expr)
		p.str(" ", not(e.Not), "BETWEEN ")
		p.expr(e.Lo)
		p.str(" AND ")
		p.expr(e.Hi)
		p.str(")")
	case *InExpr:
		p.str("(")
		p.expr(e.Expr)
		p.str(" ", not(e.Not), "IN (")
		if e.Subquery != nil {
			p.sel(e.Subquery)
		} else {
			p.list(len(e.List), func(i int) { p.expr(e.List[i]) })
		}
		p.str("))")
	case *ExistsExpr:
		p.str("(", not(e.Not), "EXISTS (")
		p.sel(e.Subquery)
		p.str("))")
	case *IsNullExpr:
		p.str("(")
		p.expr(e.Expr)
		p.str(" IS ", not(e.Not), "NULL)")
	case *FuncExpr:
		p.str(e.Name, "(")
		if e.Star {
			p.str("*")
		} else {
			p.list(len(e.Args), func(i int) { p.expr(e.Args[i]) })
		}
		p.str(")")
	}
}

func (p *printer) tableRef(tr TableRef) {
	switch t := tr.(type) {
	case *TableName:
		p.str(t.Name)
		if reservedAfterTable[strings.ToUpper(t.Alias)] {
			p.str(" AS") // bare, the alias would read as the next clause
		}
		if t.Alias != "" {
			p.str(" ", t.Alias)
		}
	case *SubqueryRef:
		p.str("(")
		p.sel(t.Select)
		p.str(") ", t.Alias)
	case *JoinRef:
		p.tableRef(t.Left)
		p.str(" JOIN ")
		p.tableRef(t.Right)
		p.str(" ON ")
		p.expr(t.On)
	}
}

func (p *printer) sel(s *SelectStmt) {
	p.str("SELECT ")
	if s.Distinct {
		p.str("DISTINCT ")
	}
	if s.Top > 0 {
		p.str("TOP ", strconv.FormatInt(s.Top, 10), " ")
	}
	p.list(len(s.Items), func(i int) {
		switch item := s.Items[i]; {
		case item.Star && item.StarTable != "":
			p.str(item.StarTable, ".*")
		case item.Star:
			p.str("*")
		default:
			p.expr(item.Expr)
			if item.Alias != "" {
				p.str(" AS ", item.Alias)
			}
		}
	})
	if len(s.From) > 0 {
		p.str(" FROM ")
		p.list(len(s.From), func(i int) { p.tableRef(s.From[i]) })
	}
	if s.Where != nil {
		p.str(" WHERE ")
		p.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		p.str(" GROUP BY ")
		p.list(len(s.GroupBy), func(i int) { p.expr(s.GroupBy[i]) })
	}
	if s.Having != nil {
		p.str(" HAVING ")
		p.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		p.str(" ORDER BY ")
		p.list(len(s.OrderBy), func(i int) {
			p.expr(s.OrderBy[i].Expr)
			if s.OrderBy[i].Desc {
				p.str(" DESC")
			}
		})
	}
	if s.Currency != nil {
		p.str(" ", s.Currency.SQL())
	}
}
