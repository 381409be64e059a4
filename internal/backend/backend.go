// Package backend implements the master database server: the single site
// where update transactions run (the paper's model, Appendix 8.1). It owns
// the authoritative tables, assigns commit timestamps, exposes the commit
// log that transactional replication ships to caches, and maintains the
// global heartbeat table (Section 3.1) whose per-region rows replicate into
// each currency region.
package backend

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/txn"
	"relaxedcc/internal/vclock"
)

// HeartbeatTable is the name of the global heartbeat table: one row per
// currency region, its timestamp advanced by Beat. Updates to it flow
// through the ordinary commit log, so each region's distribution agent
// replicates its own row — exactly the paper's design.
const HeartbeatTable = "Heartbeat"

// Server is the back-end DBMS.
type Server struct {
	clock   vclock.Clock
	cat     *catalog.Catalog
	log     *txn.Log
	planner *opt.Planner

	mu     sync.Mutex // serializes writers (strict-2PL stand-in) and DDL
	tables map[string]*storage.Table

	// stmtMu guards shapes, the optimized templates Query answers from: the
	// statements a cache ships are a handful of shapes differing in literals.
	// Emptied when plans may have been made against something that changed:
	// DDL, new statistics, a bulk load, a new region.
	stmtMu sync.Mutex
	shapes opt.Shapes
	// planGen counts the times shapes was emptied: Query plans outside the
	// lock, and a plan begun under an older count is not filed.
	planGen uint64
}

// invalidatePlans drops the templates: what they were planned against changed.
func (s *Server) invalidatePlans() {
	s.stmtMu.Lock()
	s.shapes.Reset()
	s.planGen++
	s.stmtMu.Unlock()
}

// New creates a back-end server with an empty catalog plus the heartbeat
// table.
func New(clock vclock.Clock) *Server {
	s := &Server{
		clock:  clock,
		cat:    catalog.New(),
		log:    txn.NewLog(),
		tables: map[string]*storage.Table{},
	}
	s.planner = opt.NewPlanner(&opt.Site{
		Cat:        s.cat,
		LocalTable: s.Table,
		LocalView:  func(string) *storage.Table { return nil },
		Clock:      clock,
	})
	hb := &catalog.Table{
		Name: HeartbeatTable,
		Columns: []catalog.Column{
			{Name: "cid", Type: sqltypes.KindInt, NotNull: true},
			{Name: "ts", Type: sqltypes.KindTime, NotNull: true},
		},
		PrimaryKey: []string{"cid"},
	}
	if err := s.cat.AddTable(hb); err != nil {
		panic(err) // fresh catalog cannot collide
	}
	s.tables[HeartbeatTable] = storage.NewTable(hb)
	return s
}

// Catalog returns the server's catalog.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// Log returns the commit log read by distribution agents.
func (s *Server) Log() *txn.Log { return s.log }

// Clock returns the server's time source.
func (s *Server) Clock() vclock.Clock { return s.clock }

// Table returns local storage for a table, or nil.
func (s *Server) Table(name string) *storage.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[name]
}

// ErrNotDML is ExecDML's answer to a statement that is no INSERT, UPDATE or
// DELETE.
var ErrNotDML = errors.New("backend: not an INSERT, UPDATE or DELETE")

// Exec runs a DDL or DML statement, returning the number of affected rows.
func (s *Server) Exec(sql string) (int, error) { return s.exec(sql, true) }

// ExecDML runs an INSERT, UPDATE or DELETE as a cache forwards it: any other
// statement that parses is refused with ErrNotDML.
func (s *Server) ExecDML(sql string) (int, error) { return s.exec(sql, false) }

// exec runs a statement's text, DDL only when ddl is set. DML of a shape met
// before (opt.Shapes) is neither parsed nor compiled: one lexer pass finds its
// template and its literals, and the template runs with them.
func (s *Server) exec(sql string, ddl bool) (int, error) {
	var kb [256]byte
	var vb [8]sqltypes.Value
	var gen uint64
	var d *dml
	skel, vals, scanned := sqlparser.Scan(sql, kb[:0], vb[:0])
	if scanned {
		s.stmtMu.Lock()
		gen = s.planGen
		if t := s.shapes.Find(skel, vals); t != nil {
			d, _ = t.DML.(*dml)
		}
		s.stmtMu.Unlock()
		if d != nil {
			return s.run(d, vals)
		}
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, err
	}
	if d, err = s.compile(stmt); errors.Is(err, ErrNotDML) && ddl {
		return s.ExecStmt(stmt)
	} else if err != nil {
		return 0, err
	}
	var params []sqltypes.Value // nil: a template not filed reads its own literals
	if scanned && d.err == nil {
		s.stmtMu.Lock()
		if gen == s.planGen { // else compiled across an invalidation
			_, params = s.shapes.File(skel, vals, d.slots, 0, &opt.Template{DML: d})
		}
		s.stmtMu.Unlock()
	}
	return s.run(d, params)
}

// ExecStmt runs a parsed DDL or DML statement. DML is compiled as a text of a
// new shape is, into a template that is not filed, and runs like one.
func (s *Server) ExecStmt(stmt sqlparser.Statement) (int, error) {
	switch stmt := stmt.(type) {
	case *sqlparser.CreateTableStmt:
		return 0, s.createTable(stmt)
	case *sqlparser.CreateIndexStmt:
		return 0, s.createIndex(stmt)
	}
	d, err := s.compile(stmt)
	if errors.Is(err, ErrNotDML) {
		err = fmt.Errorf("backend: unsupported statement %T", stmt)
	}
	if err != nil {
		return 0, err
	}
	return s.run(d, nil)
}

// Query plans and executes a SELECT text, returning the materialized result:
// QueryScanned of the text alone.
func (s *Server) Query(sql string) (*exec.Result, error) {
	return s.QueryScanned(sqlparser.Scanned{SQL: sql})
}

// QueryScanned plans and executes a SELECT as the cache ships it. Data at the
// master is always current, so C&C constraints are trivially satisfied here.
// A statement of a shape met before (opt.Shapes) is neither parsed nor
// planned: its skeleton and literals — shipped, or read by one lexer pass
// over a text shipped alone — find its template, and an idle tree of the
// template runs with them. The text is made only for a statement that must
// be parsed.
func (s *Server) QueryScanned(q sqlparser.Scanned) (*exec.Result, error) {
	var kb [256]byte
	var vb [8]sqltypes.Value
	var t *opt.Template
	var root exec.Operator
	var setup time.Duration
	var gen uint64
	var sql string
	// The values are copied: binding turns them into parameters in place.
	skel, vals, ok := q.Skel, append(vb[:0], q.Vals...), q.Skel != nil
	if !ok {
		sql = q.Text()
		skel, vals, ok = sqlparser.Scan(sql, kb[:0], vals)
	}
	if ok {
		s.stmtMu.Lock()
		gen = s.planGen
		if t = s.shapes.Find(skel, vals); t != nil && t.Plan == nil {
			t = nil // DML's: ParseSelect says why it is no SELECT
		}
		root = t.TakeIdle()
		s.stmtMu.Unlock()
	}
	if t == nil {
		if q.Skel != nil {
			sql = q.Text()
		}
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			return nil, err
		}
		plan, err := s.Plan(sel)
		if err != nil {
			return nil, err
		}
		root, setup = plan.Root, plan.Setup
		s.stmtMu.Lock()
		if gen != s.planGen {
			// Planned across an invalidation, perhaps against the catalog
			// or the statistics before it: this statement's own.
			skel = nil
		}
		t, vals = s.shapes.Add(skel, vals, sel, plan)
		s.stmtMu.Unlock()
	} else if root == nil {
		var err error
		if root, err = t.Plan.Build(); err != nil {
			return nil, err
		}
	}
	// One reply holds the run's context, its parameters (copied: the scan's
	// buffers stay on the stack; nil stays nil, a plan of its own) and a
	// small answer. The caller's result and rows point into it and keep it.
	r := &reply{ctx: exec.EvalContext{Now: s.clock.Now(), Clock: s.clock}}
	if vals != nil {
		r.ctx.Params = append(r.params[:0], vals...)
	}
	r.res.Reserve(r.rows[:], r.vals[:])
	if err := exec.RunInto(&r.res, root, &r.ctx, setup); err != nil {
		return nil, err
	}
	s.stmtMu.Lock()
	t.CheckIn(root)
	s.stmtMu.Unlock()
	return &r.res, nil
}

// reply is one answer of Query in one allocation: a shipped point read's
// literal and its row of up to three columns fit, a larger answer allocates
// its row list and values as exec.Run does.
type reply struct {
	res    exec.Result
	ctx    exec.EvalContext
	params [1]sqltypes.Value
	rows   [1]sqltypes.Row
	vals   [3]sqltypes.Value
}

// QuerySelect executes a parsed SELECT.
func (s *Server) QuerySelect(sel *sqlparser.SelectStmt) (*exec.Result, error) {
	plan, err := s.Plan(sel)
	if err != nil {
		return nil, err
	}
	return exec.Run(plan.Root, &exec.EvalContext{Now: s.clock.Now(), Clock: s.clock}, plan.Setup)
}

// Plan exposes planning separately (used by benchmarks that re-execute one
// plan many times).
func (s *Server) Plan(sel *sqlparser.SelectStmt) (*opt.Plan, error) {
	if len(sel.From) == 0 {
		return trivialPlan(sel)
	}
	plan, _, err := s.planner.PlanSelect(sel)
	return plan, err
}

// trivialPlan evaluates a FROM-less SELECT (e.g. SELECT 1).
func trivialPlan(sel *sqlparser.SelectStmt) (*opt.Plan, error) {
	empty := exec.NewSchema()
	cols := make([]exec.Col, len(sel.Items))
	exprs := make([]exec.Expr, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("backend: SELECT * requires FROM")
		}
		kind, err := exec.Bind(item.Expr, empty)
		if err == nil {
			exprs[i], err = exec.CompileExpr(item.Expr, empty)
		}
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		cols[i] = exec.Col{Name: name, Kind: kind}
	}
	build := func() (exec.Operator, error) {
		return &exec.Project{
			Child: exec.NewValues(empty, []sqltypes.Row{{}}),
			Exprs: exprs,
			Out:   exec.NewSchema(cols...),
		}, nil
	}
	root, _ := build()
	return &opt.Plan{Root: root, Build: build, Shape: "Values"}, nil
}

func (s *Server) createTable(stmt *sqlparser.CreateTableStmt) error {
	def := &catalog.Table{Name: stmt.Table}
	var pk []string
	for _, col := range stmt.Columns {
		def.Columns = append(def.Columns, catalog.Column{Name: col.Name, Type: col.Type, NotNull: col.NotNull})
		if col.PrimaryKey {
			pk = append(pk, col.Name)
		}
	}
	if len(stmt.PrimaryKey) > 0 {
		pk = stmt.PrimaryKey
	}
	def.PrimaryKey = pk
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cat.AddTable(def); err != nil {
		return err
	}
	s.tables[stmt.Table] = storage.NewTable(def)
	s.invalidatePlans()
	return nil
}

func (s *Server) createIndex(stmt *sqlparser.CreateIndexStmt) error {
	idx := &catalog.Index{
		Name:      stmt.Name,
		Table:     stmt.Table,
		Columns:   stmt.Columns,
		Unique:    stmt.Unique,
		Clustered: stmt.Clustered,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, ok := s.tables[stmt.Table]
	if !ok {
		return fmt.Errorf("backend: no table %s", stmt.Table)
	}
	if err := tbl.AddIndex(idx); err != nil {
		return err
	}
	err := s.cat.AddIndex(idx)
	s.invalidatePlans()
	return err
}

// dml is an INSERT, UPDATE or DELETE bound and compiled against its table:
// the template every text of its shape runs through (opt.Shapes files it), or
// one parse's own (ExecStmt). Its expressions read their literals from the
// execution's parameters, or from the parse when there are none.
type dml struct {
	tbl    *storage.Table
	insert bool // else an UPDATE, or a DELETE, which has no set
	slots  sqlparser.Slots
	ords   []int                // the columns of an INSERT's values, of an UPDATE's set
	rows   [][]exec.Compiled    // an INSERT's VALUES rows
	set    []exec.Compiled      // an UPDATE's SET expressions, over the old row
	where  exec.Compiled        // nil: every row
	key    []*sqlparser.Literal // the literal of each key column where the WHERE seeks (pinKey)
	// err is the bind error an INSERT reports once the values before it have
	// evaluated (compileInsert). A template with one is not filed.
	err error
}

// compile binds and compiles an INSERT, UPDATE or DELETE against its table,
// which it resolves as the planner does (Site.LocalTable); ErrNotDML for any
// other statement.
func (s *Server) compile(stmt sqlparser.Statement) (*dml, error) {
	d := &dml{}
	var table string
	var where sqlparser.Expr
	var set []sqlparser.Assignment
	switch st := stmt.(type) {
	case *sqlparser.InsertStmt:
		d.insert, d.slots, table = true, st.Slots, st.Table
	case *sqlparser.UpdateStmt:
		d.slots, table, where, set = st.Slots, st.Table, st.Where, st.Set
	case *sqlparser.DeleteStmt:
		d.slots, table, where = st.Slots, st.Table, st.Where
	default:
		return nil, ErrNotDML
	}
	if d.tbl = s.planner.Site.LocalTable(table); d.tbl == nil {
		return nil, fmt.Errorf("backend: no table %s", table)
	}
	if ins, ok := stmt.(*sqlparser.InsertStmt); ok {
		return d, d.compileInsert(ins)
	}
	return d, d.compileModify(where, set)
}

// compileInsert binds and compiles the VALUES rows in the order they are
// evaluated. A row of the wrong arity or a value that does not bind becomes
// d.err, and the values before it stay: run evaluates them first, so one that
// fails to evaluate is what the statement reports, as it was when each value
// was bound just before it was evaluated.
func (d *dml) compileInsert(stmt *sqlparser.InsertStmt) error {
	def := d.tbl.Def()
	var err error
	if d.ords, err = insertOrdinals(def, stmt.Columns); err != nil {
		return err
	}
	empty := exec.NewSchema()
	for _, exprRow := range stmt.Rows {
		if len(exprRow) != len(d.ords) {
			d.err = fmt.Errorf("backend: INSERT arity mismatch")
			return nil
		}
		row := make([]exec.Compiled, len(exprRow))
		for i, e := range exprRow {
			if d.err = bindValue(def, d.ords[i], e, empty); d.err == nil {
				row[i], d.err = exec.Compile(e, empty)
			}
			if d.err != nil {
				d.rows = append(d.rows, row[:i])
				return nil
			}
		}
		d.rows = append(d.rows, row)
	}
	return nil
}

// compileModify binds and compiles an UPDATE's SET list (a DELETE has none)
// and the WHERE, and decides whether the WHERE seeks (pinKey).
func (d *dml) compileModify(where sqlparser.Expr, set []sqlparser.Assignment) error {
	def := d.tbl.Def()
	schema := tableSchema(def)
	d.ords, d.set = make([]int, len(set)), make([]exec.Compiled, len(set))
	for i, a := range set {
		if d.ords[i] = def.ColumnIndex(a.Column); d.ords[i] < 0 {
			return fmt.Errorf("backend: table %s has no column %s", def.Name, a.Column)
		}
		if slices.Contains(d.ords[:i], d.ords[i]) { // insertOrdinals' error
			return fmt.Errorf("backend: %s.%s is assigned twice", def.Name, a.Column)
		}
		err := bindValue(def, d.ords[i], a.Value, schema)
		if err == nil {
			d.set[i], err = exec.Compile(a.Value, schema)
		}
		if err != nil {
			return err
		}
	}
	if where == nil {
		return nil
	}
	var err error
	if d.where, err = exec.Compile(where, schema); err == nil {
		d.key = pinKey(def, schema, where)
	}
	return err
}

// run executes a compiled statement with params (see dml) under the writers'
// lock, as one transaction: a failure undoes what it changed and writes no
// commit record.
func (s *Server) run(d *dml, params []sqltypes.Value) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// GETDATE() is fixed for the statement.
	ctx := &exec.EvalContext{Now: s.clock.Now(), Params: slices.Clone(params)}
	if d.insert {
		return s.insert(d, ctx)
	}
	return s.modify(d, ctx)
}

// insert evaluates every row of an INSERT before it inserts any, as one
// transaction (write): a row that fails to evaluate leaves no other behind.
// The commit record keeps the rows: they are the caller's no more.
func (s *Server) insert(d *dml, ctx *exec.EvalContext) (int, error) {
	width := len(d.tbl.Def().Columns)
	vals := make([]sqltypes.Value, len(d.rows)*width)
	rows := make([]sqltypes.Row, len(d.rows))
	for r, exprs := range d.rows {
		rows[r] = vals[r*width : (r+1)*width : (r+1)*width]
		for i, e := range exprs {
			var err error
			if rows[r][d.ords[i]], err = e(ctx, nil); err != nil {
				return 0, err
			}
		}
	}
	if d.err != nil {
		return 0, d.err
	}
	return s.write(d.tbl, ctx.Now, len(rows), func(i int) (_, _ sqltypes.Row, _ error) { return nil, rows[i], nil })
}

// write makes n changes to tbl, the ith from change(i), as one transaction
// committed at now. Every change is evaluated, and its new row checked to fit
// its columns (checkKinds), before any is made; then they are made as one unit
// (txn.Apply). A change that fails either way leaves the table as it was and
// writes no commit record.
func (s *Server) write(tbl *storage.Table, now time.Time, n int, change func(i int) (old, new sqltypes.Row, err error)) (int, error) {
	changes := make([]txn.Change, n)
	for i := range changes {
		old, new, err := change(i)
		if err == nil {
			err = checkKinds(tbl.Def(), new)
		}
		if err != nil {
			return 0, err
		}
		changes[i] = txn.Change{Table: tbl.Def().Name, Old: old, New: new}
	}
	if err := txn.Apply(n, func(i int) (*storage.Table, sqltypes.Row, sqltypes.Row) {
		return tbl, changes[i].Old, changes[i].New
	}); err != nil {
		return 0, err
	}
	s.log.Append(now, changes)
	return n, nil
}

func insertOrdinals(def *catalog.Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		out := make([]int, len(def.Columns))
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		o := def.ColumnIndex(c)
		if o < 0 {
			return nil, fmt.Errorf("backend: table %s has no column %s", def.Name, c)
		}
		if slices.Contains(out[:i], o) {
			return nil, fmt.Errorf("backend: %s.%s is assigned twice", def.Name, c)
		}
		out[i] = o
	}
	return out, nil
}

// modify runs a DELETE or an UPDATE over the rows its WHERE matches, as one
// transaction (write).
func (s *Server) modify(d *dml, ctx *exec.EvalContext) (int, error) {
	matched, err := matchRows(d, ctx)
	if err != nil {
		return 0, err
	}
	return s.write(d.tbl, ctx.Now, len(matched), func(i int) (old, updated sqltypes.Row, err error) {
		if old = matched[i]; len(d.set) == 0 { // a DELETE
			return old, nil, nil
		}
		updated = old.Clone()
		for k, e := range d.set {
			if updated[d.ords[k]], err = e(ctx, old); err != nil {
				break
			}
		}
		return old, updated, err
	})
}

// matchRows returns copies of the rows of d's table that satisfy its WHERE
// (every row when it has none), in primary-key order — collected before any
// mutation, because a table cannot change under its own scan. Where the WHERE
// pins the whole primary key (d.key), Table.Peek copies out the one row that
// can match. Otherwise the scalar predicate sees each row where Table.Scan
// laid its leaf window out, in one reused buffer; a row that matches is copied.
func matchRows(d *dml, ctx *exec.EvalContext) ([]sqltypes.Row, error) {
	if d.key != nil {
		var kb [4]sqltypes.Value
		key := kb[:0]
		for _, lit := range d.key {
			key = append(key, lit.Value(ctx.Params))
		}
		if row, found := d.tbl.Peek(key, nil); found {
			if ok, err := exec.PredicateTrue(d.where, ctx, row); !ok {
				return nil, err
			}
			return []sqltypes.Row{row}, nil
		}
		return nil, nil
	}
	var matched []sqltypes.Row
	var err error
	d.tbl.Scan(func(r sqltypes.Row) bool {
		ok := d.where == nil
		if !ok {
			ok, err = exec.PredicateTrue(d.where, ctx, r)
		}
		if ok {
			matched = append(matched, r.Clone())
		}
		return err == nil
	})
	return matched, err
}

// pinKey returns, for each primary-key column, the literal that where's `=`
// conjuncts pin it to, when they pin every key column and every top-level AND
// conjunct compares a column with a non-NULL literal; else nil. where is bound
// (compileModify compiles it), so no such conjunct can fail on any row, and
// where on the one row at the key gives the scan's rows. A conjunct that can
// fail (`bal / 0 = 1`) fails on the scan's first row whether or not the key is
// there, so it keeps the scan. The decision holds for every text of the
// statement's shape: the skeleton fixes every literal's kind and which are
// NULL, and no number token reads as a NaN, which would equal every key.
func pinKey(def *catalog.Table, schema *exec.Schema, where sqlparser.Expr) []*sqlparser.Literal {
	key := make([]*sqlparser.Literal, len(def.PrimaryKey))
	var pin func(e sqlparser.Expr) bool
	pin = func(e sqlparser.Expr) bool {
		b, ok := e.(*sqlparser.BinaryExpr)
		if !ok {
			return false
		}
		switch b.Op {
		case sqlparser.OpAnd:
			return pin(b.Left) && pin(b.Right)
		case sqlparser.OpEQ, sqlparser.OpNE, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
			col, lit, _, ok := exec.ColLitCmp(b, schema)
			if !ok || lit.Val.IsNull() {
				return false
			}
			if k := slices.Index(def.PrimaryKey, def.Columns[col].Name); k >= 0 && b.Op == sqlparser.OpEQ {
				key[k] = lit
			}
			return true
		}
		return false
	}
	if !pin(where) || slices.Contains(key, nil) {
		return nil
	}
	return key
}

// bindValue binds e, evaluated against schema, as the value of column col of
// def (an INSERT's VALUES, an UPDATE's SET): its kind must fit the column,
// which holds values it is comparable with (exec.Comparable).
func bindValue(def *catalog.Table, col int, e sqlparser.Expr, schema *exec.Schema) error {
	k, err := exec.Bind(e, schema)
	if c := def.Columns[col]; err == nil && !exec.Comparable(c.Type, k) {
		err = fmt.Errorf("backend: %s.%s is %s, cannot hold %s", def.Name, c.Name, c.Type, k)
	}
	return err
}

// checkKinds rejects a value that does not fit its column (exec.Comparable),
// and a NaN, which equals every number, so a key lookup would miss where a
// scan matches: the check at the storage edge, which LoadRows needs.
func checkKinds(def *catalog.Table, row sqltypes.Row) error {
	for i, col := range def.Columns {
		if i < len(row) && (!exec.Comparable(col.Type, row[i].Kind()) || row[i].Kind() == sqltypes.KindFloat && math.IsNaN(row[i].Float())) {
			return fmt.Errorf("backend: %s.%s is %s, cannot hold %s", def.Name, col.Name, col.Type, row[i])
		}
	}
	return nil
}

func tableSchema(def *catalog.Table) *exec.Schema {
	cols := make([]exec.Col, len(def.Columns))
	for i, c := range def.Columns {
		cols[i] = exec.Col{Binding: def.Name, Name: c.Name, Kind: c.Type}
	}
	return exec.NewSchema(cols...)
}

// RegisterRegion adds a currency region and its heartbeat row.
func (s *Server) RegisterRegion(r *catalog.Region) error {
	if err := s.cat.AddRegion(r); err != nil {
		return err
	}
	s.invalidatePlans()
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	_, err := s.write(s.tables[HeartbeatTable], now, 1, func(int) (_, _ sqltypes.Row, _ error) {
		return nil, sqltypes.Row{sqltypes.NewInt(int64(r.ID)), sqltypes.NewTime(now)}, nil
	})
	return err
}

// Beat advances the region's heartbeat: an ordinary committed transaction
// updating the region's row, whose timestamp is its commit time, so it
// replicates through the region's agent.
func (s *Server) Beat(regionID int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, now := s.tables[HeartbeatTable], s.clock.Now()
	row := sqltypes.Row{sqltypes.NewInt(int64(regionID)), sqltypes.NewTime(now)}
	old, ok := tbl.Get(row[:1])
	if !ok {
		return fmt.Errorf("backend: no heartbeat row for region %d", regionID)
	}
	_, err := s.write(tbl, now, 1, func(int) (_, _ sqltypes.Row, _ error) { return old, row, nil })
	return err
}

// AnalyzeAll recomputes optimizer statistics for every table from its
// leaves, one read latch per table (storage.Table.Analyze).
func (s *Server) AnalyzeAll() {
	s.mu.Lock()
	tables := maps.Clone(s.tables)
	s.mu.Unlock()
	for name, tbl := range tables {
		stats := tbl.Analyze()
		s.cat.Table(name).Stats.Set(stats.RowCount, stats.AvgRowBytes, stats.Columns)
	}
	s.invalidatePlans()
}

// LoadRows bulk-inserts copies of rows as one transaction, bypassing SQL
// parsing (used by workload generators).
func (s *Server) LoadRows(table string, rows []sqltypes.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("backend: no table %s", table)
	}
	_, err := s.write(tbl, s.clock.Now(), len(rows), func(i int) (_, _ sqltypes.Row, _ error) { return nil, rows[i].Clone(), nil })
	s.invalidatePlans()
	return err
}

// CheckLog checks that the master's tables are what its log says they are:
// each table's digest, the sum of its rows' hashes (sqltypes.Row.Hash), must
// equal the log's for it (txn.Log.Digest), the digest of the changes whose
// rows the log has released plus the deltas of every change since. DDL is
// not logged, but the initial load, heartbeats and DML are, so the log's
// digest starts from empty tables.
func (s *Server) CheckLog() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := s.log.Digest()
	for name := range want {
		if s.tables[name] == nil {
			return fmt.Errorf("backend: the log writes table %s, which is not here", name)
		}
	}
	for name, tbl := range s.tables {
		var got uint64
		tbl.Scan(func(r sqltypes.Row) bool {
			got += r.Hash()
			return true
		})
		if got != want[name] {
			return fmt.Errorf("backend: table %s is not its log: its rows' digest is %#x, the log's %#x", name, got, want[name])
		}
	}
	return nil
}
