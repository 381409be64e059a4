package sqlparser

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"relaxedcc/internal/sqltypes"
)

// Parse parses a single SQL statement.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.peek().isPunct(";") {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	for i := len(toks) - 1; i >= 0 && p.slots.N == 0; i-- {
		p.slots.N = toks[i].slot // the last number or string token has the count
	}
	switch stmt := stmt.(type) {
	case *SelectStmt:
		stmt.Slots = p.slots
	case *ExplainStmt:
		stmt.Stmt.Slots = p.slots
	case *InsertStmt:
		stmt.Slots = p.slots
	case *UpdateStmt:
		stmt.Slots = p.slots
	case *DeleteStmt:
		stmt.Slots = p.slots
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(sql string) (*SelectStmt, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT statement")
	}
	return sel, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
	// slots records which number and string tokens became literals.
	slots Slots
}

// literal builds the Literal node of a number or string token. It carries its
// slot: every statement class is shared by shape, and a shared tree reads the
// literal from its execution's parameters (Literal.Value).
func (p *parser) literal(t token, v sqltypes.Value) *Literal {
	if t.slot <= 64 {
		p.slots.Lits |= 1 << (t.slot - 1)
	}
	return &Literal{Val: v, Slot: t.slot}
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: "+format+" (near offset %d)", append(args, p.peek().pos)...)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.peek().isKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	p.next()
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.peek().isPunct(s) {
		return p.errorf("expected %q, found %s", s, p.peek())
	}
	p.next()
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	switch {
	case t.isKeyword("SELECT"):
		return p.parseSelect()
	case t.isKeyword("INSERT"):
		return p.parseInsert()
	case t.isKeyword("UPDATE"):
		return p.parseUpdate()
	case t.isKeyword("DELETE"):
		return p.parseDelete()
	case t.isKeyword("CREATE"):
		return p.parseCreate()
	case t.isKeyword("EXPLAIN"):
		p.next()
		analyze := p.acceptKeyword("ANALYZE")
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Analyze: analyze, Stmt: sel}, nil
	case t.isKeyword("BEGIN"):
		p.next()
		if err := p.expectKeyword("TIMEORDERED"); err != nil {
			return nil, err
		}
		return &BeginTimeOrderedStmt{}, nil
	case t.isKeyword("END"):
		p.next()
		if err := p.expectKeyword("TIMEORDERED"); err != nil {
			return nil, err
		}
		return &EndTimeOrderedStmt{}, nil
	default:
		return nil, p.errorf("expected statement, found %s", t)
	}
}

// reservedAfterTable lists keywords that terminate a table reference, so a
// following identifier is not mistaken for an alias.
var reservedAfterTable = map[string]bool{
	"WHERE": true, "GROUP": true, "ORDER": true, "HAVING": true,
	"JOIN": true, "INNER": true, "ON": true, "CURRENCY": true,
	"AND": true, "OR": true, "SET": true, "VALUES": true, "AS": true,
	"BY": true, "UNION": true, "LEFT": true, "RIGHT": true,
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	}
	if p.acceptKeyword("TOP") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected row count after TOP")
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("bad TOP count %q", t.text)
		}
		p.next()
		sel.Top = n
	}
	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.peek().isPunct(",") {
			break
		}
		p.next()
	}
	if p.acceptKeyword("FROM") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			if !p.peek().isPunct(",") {
				break
			}
			p.next()
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.peek().isKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.peek().isPunct(",") {
				break
			}
			p.next()
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.peek().isKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.peek().isPunct(",") {
				break
			}
			p.next()
		}
	}
	if p.peek().isKeyword("CURRENCY") {
		cc, err := p.parseCurrencyClause()
		if err != nil {
			return nil, err
		}
		sel.Currency = cc
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.peek().isPunct("*") {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// T.* form.
	if p.peek().kind == tokIdent && p.peek2().isPunct(".") {
		save := p.pos
		name := p.next().text
		p.next() // '.'
		if p.peek().isPunct("*") {
			p.next()
			return SelectItem{Star: true, StarTable: name}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent && !reservedAfterTable[strings.ToUpper(t.text)] && !t.isKeyword("FROM") {
		item.Alias = p.next().text
	}
	return item, nil
}

// parseTableRef parses one FROM-list entry: a primary table factor followed
// by any number of JOIN ... ON ... suffixes (left associative).
func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTableFactor()
	if err != nil {
		return nil, err
	}
	for {
		if p.peek().isKeyword("INNER") && p.peek2().isKeyword("JOIN") {
			p.next()
		}
		if !p.acceptKeyword("JOIN") {
			return left, nil
		}
		right, err := p.parseTableFactor()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Left: left, Right: right, On: on}
	}
}

func (p *parser) parseTableFactor() (TableRef, error) {
	if p.peek().isPunct("(") {
		p.next()
		if !p.peek().isKeyword("SELECT") {
			return nil, p.errorf("expected subquery after ( in FROM")
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return nil, fmt.Errorf("sql: derived table requires an alias: %w", err)
		}
		return &SubqueryRef{Select: sub, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	tn := &TableName{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tn.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent && !reservedAfterTable[strings.ToUpper(t.text)] {
		tn.Alias = p.next().text
	}
	return tn, nil
}

// parseCurrencyClause parses CURRENCY bound ON (tables) [BY cols] {, ...}.
func (p *parser) parseCurrencyClause() (*CurrencyClause, error) {
	if err := p.expectKeyword("CURRENCY"); err != nil {
		return nil, err
	}
	cc := &CurrencyClause{}
	for {
		triple, err := p.parseCurrencyTriple()
		if err != nil {
			return nil, err
		}
		cc.Triples = append(cc.Triples, triple)
		if p.peek().isPunct(",") && p.peek2().kind == tokNumber {
			p.next()
			continue
		}
		return cc, nil
	}
}

func (p *parser) parseCurrencyTriple() (CurrencyTriple, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return CurrencyTriple{}, p.errorf("expected currency bound, found %s", t)
	}
	amount, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return CurrencyTriple{}, p.errorf("bad currency bound %q", t.text)
	}
	p.next()
	unit := time.Second
	if p.peek().kind == tokIdent && !p.peek().isKeyword("ON") {
		u, ok := parseUnit(p.peek().text)
		if !ok {
			return CurrencyTriple{}, p.errorf("unknown time unit %q", p.peek().text)
		}
		p.next()
		unit = u
	}
	ns := math.Round(amount * float64(unit))
	if ns >= math.MaxInt64 {
		return CurrencyTriple{}, p.errorf("currency bound %s is more than a duration holds", t.text)
	}
	triple := CurrencyTriple{Bound: time.Duration(ns)}
	if err := p.expectKeyword("ON"); err != nil {
		return CurrencyTriple{}, err
	}
	if err := p.expectPunct("("); err != nil {
		return CurrencyTriple{}, err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return CurrencyTriple{}, err
		}
		triple.Tables = append(triple.Tables, name)
		if p.peek().isPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return CurrencyTriple{}, err
	}
	if p.acceptKeyword("BY") {
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return CurrencyTriple{}, err
			}
			triple.By = append(triple.By, *col)
			// A comma continues the BY list only if the element after it is
			// a column (not a new triple, which starts with a number).
			if p.peek().isPunct(",") && p.peek2().kind == tokIdent {
				p.next()
				continue
			}
			break
		}
	}
	return triple, nil
}

func parseUnit(s string) (time.Duration, bool) {
	switch strings.ToUpper(s) {
	case "MS", "MSEC", "MILLISECOND", "MILLISECONDS":
		return time.Millisecond, true
	case "S", "SEC", "SECOND", "SECONDS":
		return time.Second, true
	case "MIN", "MINUTE", "MINUTES":
		return time.Minute, true
	case "H", "HR", "HOUR", "HOURS":
		return time.Hour, true
	default:
		return 0, false
	}
}

// reservedWords may not be used as bare column names in expressions.
var reservedWords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true,
	"ORDER": true, "HAVING": true, "JOIN": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "BETWEEN": true, "IN": true,
	"IS": true, "CURRENCY": true, "INSERT": true, "UPDATE": true,
	"DELETE": true, "CREATE": true, "VALUES": true, "SET": true,
	"AS": true, "DISTINCT": true, "TOP": true, "INNER": true, "BY": true,
}

func (p *parser) parseColumnRef() (*ColumnRef, error) {
	if t := p.peek(); t.kind == tokIdent && reservedWords[strings.ToUpper(t.text)] {
		return nil, p.errorf("unexpected keyword %s in expression", t)
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.peek().isPunct(".") {
		p.next()
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Column: col}, nil
	}
	return &ColumnRef{Column: name}, nil
}

// ---- DML / DDL ----

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.peek().isPunct("(") {
		p.next()
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.peek().isPunct(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.peek().isPunct(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.peek().isPunct(",") {
			p.next()
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: val})
		if p.peek().isPunct(",") {
			p.next()
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.acceptKeyword("UNIQUE")
	clustered := p.acceptKeyword("CLUSTERED")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique || clustered {
			return nil, p.errorf("UNIQUE/CLUSTERED apply to indexes, not tables")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique, clustered)
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct := &CreateTableStmt{Table: name}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		if p.peek().isKeyword("PRIMARY") {
			p.next()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, col)
				if p.peek().isPunct(",") {
					p.next()
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
		}
		if p.peek().isPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	typeName, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	kind, ok := parseTypeName(typeName)
	if !ok {
		return ColumnDef{}, fmt.Errorf("sql: unknown type %q for column %s", typeName, name)
	}
	// Optional length/precision: VARCHAR(25), DECIMAL(12,2).
	if p.peek().isPunct("(") {
		p.next()
		for !p.peek().isPunct(")") {
			if p.peek().kind == tokEOF {
				return ColumnDef{}, fmt.Errorf("sql: unterminated type suffix for column %s", name)
			}
			p.next()
		}
		p.next()
	}
	def := ColumnDef{Name: name, Type: kind}
	for {
		switch {
		case p.peek().isKeyword("NOT"):
			p.next()
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
			def.NotNull = true
		case p.peek().isKeyword("PRIMARY"):
			p.next()
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			def.PrimaryKey = true
			def.NotNull = true
		default:
			return def, nil
		}
	}
}

func parseTypeName(s string) (sqltypes.Kind, bool) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return sqltypes.KindInt, true
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return sqltypes.KindFloat, true
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return sqltypes.KindString, true
	case "TIMESTAMP", "DATETIME", "DATE":
		return sqltypes.KindTime, true
	case "BOOLEAN", "BOOL", "BIT":
		return sqltypes.KindBool, true
	default:
		return 0, false
	}
}

func (p *parser) parseCreateIndex(unique, clustered bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	ci := &CreateIndexStmt{Name: name, Table: table, Unique: unique, Clustered: clustered}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, col)
		if p.peek().isPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return ci, nil
}

// ---- Expressions ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().isKeyword("AND") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinOp{
	"=": OpEQ, "<>": OpNE, "<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		if op, ok := comparisonOps[t.text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	not := false
	if t.isKeyword("NOT") && (p.peek2().isKeyword("BETWEEN") || p.peek2().isKeyword("IN")) {
		p.next()
		not = true
		t = p.peek()
	}
	switch {
	case t.isKeyword("BETWEEN"):
		p.next()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Lo: lo, Hi: hi, Not: not}, nil
	case t.isKeyword("IN"):
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		in := &InExpr{Expr: left, Not: not}
		if p.peek().isKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Subquery = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if p.peek().isPunct(",") {
					p.next()
					continue
				}
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return in, nil
	case t.isKeyword("IS"):
		p.next()
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Not: isNot}, nil
	default:
		if not {
			return nil, p.errorf("expected BETWEEN or IN after NOT")
		}
		return left, nil
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op BinOp
		switch {
		case t.isPunct("+"):
			op = OpAdd
		case t.isPunct("-"):
			op = OpSub
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op BinOp
		switch {
		case t.isPunct("*"):
			op = OpMul
		case t.isPunct("/"):
			op = OpDiv
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().isPunct("-") {
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := inner.(*Literal); ok && lit.Val.IsNumeric() { // fold -literal
			if 0 < lit.Slot && lit.Slot <= 64 {
				p.slots.Neg ^= 1 << (lit.Slot - 1)
			}
			return &Literal{Val: negate(lit.Val), Slot: lit.Slot}, nil
		}
		return &NegExpr{Inner: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		v, err := numberValue(t.text)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return p.literal(t, v), nil
	case tokString:
		p.next()
		return p.literal(t, sqltypes.NewString(t.text)), nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected %s in expression", t)
	case tokIdent:
		switch {
		case t.isKeyword("NULL"):
			p.next()
			return &Literal{Val: sqltypes.Null}, nil
		case t.isKeyword("TRUE"):
			p.next()
			return &Literal{Val: sqltypes.NewBool(true)}, nil
		case t.isKeyword("FALSE"):
			p.next()
			return &Literal{Val: sqltypes.NewBool(false)}, nil
		case t.isKeyword("EXISTS"):
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Subquery: sub}, nil
		}
		// Function call?
		if p.peek2().isPunct("(") {
			name := strings.ToUpper(p.next().text)
			p.next() // '('
			fn := &FuncExpr{Name: name}
			if p.peek().isPunct("*") {
				p.next()
				fn.Star = true
			} else if !p.peek().isPunct(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fn.Args = append(fn.Args, e)
					if p.peek().isPunct(",") {
						p.next()
						continue
					}
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return fn, nil
		}
		return p.parseColumnRef()
	default:
		return nil, p.errorf("unexpected %s in expression", t)
	}
}
