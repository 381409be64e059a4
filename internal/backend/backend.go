// Package backend implements the master database server: the single site
// where update transactions run (the paper's model, Appendix 8.1). It owns
// the authoritative tables, assigns commit timestamps, exposes the commit
// log that transactional replication ships to caches, and maintains the
// global heartbeat table (Section 3.1) whose per-region rows replicate into
// each currency region.
package backend

import (
	"fmt"
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

// Exec runs a DDL or DML statement, returning the number of affected rows.
func (s *Server) Exec(sql string) (int, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, err
	}
	return s.ExecStmt(stmt)
}

// ExecStmt runs a parsed DDL or DML statement.
func (s *Server) ExecStmt(stmt sqlparser.Statement) (int, error) {
	switch stmt := stmt.(type) {
	case *sqlparser.CreateTableStmt:
		return 0, s.createTable(stmt)
	case *sqlparser.CreateIndexStmt:
		return 0, s.createIndex(stmt)
	case *sqlparser.InsertStmt:
		return s.insert(stmt)
	case *sqlparser.UpdateStmt:
		return s.update(stmt)
	case *sqlparser.DeleteStmt:
		return s.delete(stmt)
	default:
		return 0, fmt.Errorf("backend: unsupported statement %T", stmt)
	}
}

// Query plans and executes a SELECT, returning the materialized result.
// Data at the master is always current, so C&C constraints are trivially
// satisfied here. A statement of a shape met before (opt.Shapes) is neither
// parsed nor planned: one lexer pass finds its template and its literals, and
// an idle tree of the template runs with them.
func (s *Server) Query(sql string) (*exec.Result, error) {
	var kb [256]byte
	var vb [8]sqltypes.Value
	var t *opt.Template
	var root exec.Operator
	var setup time.Duration
	var gen uint64
	skel, vals, ok := sqlparser.Scan(sql, kb[:0], vb[:0])
	if ok {
		s.stmtMu.Lock()
		gen = s.planGen
		t = s.shapes.Find(skel, vals)
		root = t.TakeIdle()
		s.stmtMu.Unlock()
	}
	if t == nil {
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
	// The copy keeps the scan's buffers on the stack.
	res, err := exec.Run(root, &exec.EvalContext{Now: s.clock.Now(), Params: slices.Clone(vals)}, setup)
	if err == nil {
		s.stmtMu.Lock()
		t.CheckIn(root)
		s.stmtMu.Unlock()
	}
	return res, err
}

// QuerySelect executes a parsed SELECT.
func (s *Server) QuerySelect(sel *sqlparser.SelectStmt) (*exec.Result, error) {
	plan, err := s.Plan(sel)
	if err != nil {
		return nil, err
	}
	return exec.Run(plan.Root, &exec.EvalContext{Now: s.clock.Now()}, plan.Setup)
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
		var err error
		if exprs[i], err = exec.CompileExpr(item.Expr, empty); err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		cols[i] = exec.Col{Name: name}
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

func (s *Server) insert(stmt *sqlparser.InsertStmt) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, ok := s.tables[stmt.Table]
	if !ok {
		return 0, fmt.Errorf("backend: no table %s", stmt.Table)
	}
	def := tbl.Def()
	ords, err := insertOrdinals(def, stmt.Columns)
	if err != nil {
		return 0, err
	}
	empty := exec.NewSchema()
	var changes []txn.Change
	for _, exprRow := range stmt.Rows {
		if len(exprRow) != len(ords) {
			return 0, fmt.Errorf("backend: INSERT arity mismatch")
		}
		row := make(sqltypes.Row, len(def.Columns))
		for i, e := range exprRow {
			c, err := exec.Compile(e, empty)
			if err != nil {
				return 0, err
			}
			v, err := c(&exec.EvalContext{Now: s.clock.Now()}, nil)
			if err != nil {
				return 0, err
			}
			row[ords[i]] = v
		}
		if err := tbl.Insert(row); err != nil {
			s.rollback(tbl, changes)
			return 0, err
		}
		changes = append(changes, txn.Change{Table: def.Name, Op: txn.OpInsert, New: row.Clone()})
	}
	s.log.Append(s.clock.Now(), changes)
	return len(changes), nil
}

// rollback undoes already-applied changes of a failed statement, keeping
// the statement atomic.
func (s *Server) rollback(tbl *storage.Table, changes []txn.Change) {
	pkOrds := tbl.Def().PKOrdinals()
	for i := len(changes) - 1; i >= 0; i-- {
		ch := changes[i]
		switch ch.Op {
		case txn.OpInsert:
			tbl.Delete(pkVals(ch.New, pkOrds))
		case txn.OpDelete:
			tbl.Insert(ch.Old)
		case txn.OpUpdate:
			tbl.Update(ch.Old)
		}
	}
}

func pkVals(row sqltypes.Row, ords []int) sqltypes.Row {
	out := make(sqltypes.Row, len(ords))
	for i, o := range ords {
		out[i] = row[o]
	}
	return out
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
		out[i] = o
	}
	return out, nil
}

func (s *Server) update(stmt *sqlparser.UpdateStmt) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, ok := s.tables[stmt.Table]
	if !ok {
		return 0, fmt.Errorf("backend: no table %s", stmt.Table)
	}
	def := tbl.Def()
	schema := tableSchema(def)
	evalCtx := &exec.EvalContext{Now: s.clock.Now()}
	type setOp struct {
		ord  int
		expr exec.Compiled
	}
	var sets []setOp
	for _, a := range stmt.Set {
		ord := def.ColumnIndex(a.Column)
		if ord < 0 {
			return 0, fmt.Errorf("backend: table %s has no column %s", def.Name, a.Column)
		}
		c, err := exec.Compile(a.Value, schema)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setOp{ord: ord, expr: c})
	}
	matched, err := matchRows(tbl, stmt.Where, evalCtx)
	if err != nil {
		return 0, err
	}
	pkOrds := def.PKOrdinals()
	var changes []txn.Change
	for _, old := range matched {
		updated := old.Clone()
		for _, st := range sets {
			v, err := st.expr(evalCtx, old)
			if err != nil {
				s.rollback(tbl, changes)
				return 0, err
			}
			updated[st.ord] = v
		}
		pkChanged := !pkVals(old, pkOrds).Equal(pkVals(updated, pkOrds))
		if pkChanged {
			if !tbl.Delete(pkVals(old, pkOrds)) {
				s.rollback(tbl, changes)
				return 0, fmt.Errorf("backend: row vanished during update")
			}
			if err := tbl.Insert(updated); err != nil {
				tbl.Insert(old)
				s.rollback(tbl, changes)
				return 0, err
			}
		} else if err := tbl.Update(updated); err != nil {
			s.rollback(tbl, changes)
			return 0, err
		}
		changes = append(changes, txn.Change{Table: def.Name, Op: txn.OpUpdate, Old: old, New: updated.Clone()})
	}
	s.log.Append(s.clock.Now(), changes)
	return len(changes), nil
}

func (s *Server) delete(stmt *sqlparser.DeleteStmt) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, ok := s.tables[stmt.Table]
	if !ok {
		return 0, fmt.Errorf("backend: no table %s", stmt.Table)
	}
	def := tbl.Def()
	matched, err := matchRows(tbl, stmt.Where, &exec.EvalContext{Now: s.clock.Now()})
	if err != nil {
		return 0, err
	}
	pkOrds := def.PKOrdinals()
	var changes []txn.Change
	for _, old := range matched {
		if tbl.Delete(pkVals(old, pkOrds)) {
			changes = append(changes, txn.Change{Table: def.Name, Op: txn.OpDelete, Old: old})
		}
	}
	s.log.Append(s.clock.Now(), changes)
	return len(changes), nil
}

// matchRows returns copies of the rows of tbl that satisfy where (every row
// when it is nil), in primary-key order — collected before any mutation,
// because a table cannot change under its own scan. The scalar predicate
// sees each row where Table.Scan laid its leaf window out, in one reused
// buffer; a row that matches is copied.
func matchRows(tbl *storage.Table, where sqlparser.Expr, ctx *exec.EvalContext) ([]sqltypes.Row, error) {
	var pred exec.Compiled
	if where != nil {
		var err error
		if pred, err = exec.Compile(where, tableSchema(tbl.Def())); err != nil {
			return nil, err
		}
	}
	var matched []sqltypes.Row
	var err error
	tbl.Scan(func(r sqltypes.Row) bool {
		ok := pred == nil
		if !ok {
			ok, err = exec.PredicateTrue(pred, ctx, r)
		}
		if ok {
			matched = append(matched, r.Clone())
		}
		return err == nil
	})
	return matched, err
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
	tbl := s.tables[HeartbeatTable]
	row := sqltypes.Row{sqltypes.NewInt(int64(r.ID)), sqltypes.NewTime(s.clock.Now())}
	if err := tbl.Insert(row); err != nil {
		return err
	}
	s.log.Append(s.clock.Now(), []txn.Change{{Table: HeartbeatTable, Op: txn.OpInsert, New: row}})
	return nil
}

// Beat advances the region's heartbeat: an ordinary committed transaction
// updating the region's row, so it replicates through the region's agent.
func (s *Server) Beat(regionID int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl := s.tables[HeartbeatTable]
	key := sqltypes.Row{sqltypes.NewInt(int64(regionID))}
	old, ok := tbl.Get(key)
	if !ok {
		return fmt.Errorf("backend: no heartbeat row for region %d", regionID)
	}
	now := s.clock.Now()
	updated := sqltypes.Row{key[0], sqltypes.NewTime(now)}
	if err := tbl.Update(updated); err != nil {
		return err
	}
	s.log.Append(now, []txn.Change{{Table: HeartbeatTable, Op: txn.OpUpdate, Old: old, New: updated}})
	return nil
}

// AnalyzeAll recomputes optimizer statistics for every table by scanning
// storage.
func (s *Server) AnalyzeAll() {
	s.mu.Lock()
	tables := make(map[string]*storage.Table, len(s.tables))
	for n, t := range s.tables {
		tables[n] = t
	}
	s.mu.Unlock()
	for name, tbl := range tables {
		def := s.cat.Table(name)
		stats := catalog.BuildStats(def, func(yield func(sqltypes.Row)) {
			tbl.Scan(func(r sqltypes.Row) bool {
				yield(r)
				return true
			})
		})
		def.Stats.Set(stats.RowCount, stats.AvgRowBytes, stats.Columns)
	}
	s.invalidatePlans()
}

// LoadRows bulk-inserts rows as one transaction, bypassing SQL parsing (used
// by workload generators).
func (s *Server) LoadRows(table string, rows []sqltypes.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("backend: no table %s", table)
	}
	changes := make([]txn.Change, 0, len(rows))
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			s.rollback(tbl, changes)
			return err
		}
		changes = append(changes, txn.Change{Table: table, Op: txn.OpInsert, New: r.Clone()})
	}
	s.log.Append(s.clock.Now(), changes)
	s.invalidatePlans()
	return nil
}
