package opt

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/cc"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// Planner builds physical plans for one site.
type Planner struct {
	Site *Site
	Opts Options
	// hoist, when non-zero, marks a hoisting pass (hoistedCands): views of
	// this currency region are accessed without guards of their own, because
	// the finished plan goes under one guard at the root, and views of other
	// regions are not used.
	hoist int
}

// NewPlanner returns a planner with default options.
func NewPlanner(site *Site) *Planner { return &Planner{Site: site} }

// skipConsistency reports whether compile-time consistency checking is
// disabled: always at the back end (the master is current and consistent),
// or explicitly via options.
func (p *Planner) skipConsistency() bool {
	return p.Site.IsBackend() || p.Opts.IgnoreConstraints
}

// keepPerState bounds how many candidates with distinct delivered
// consistency properties are retained per join-order DP state.
const keepPerState = 3

// PlanSelect algebrizes and plans a SELECT, returning the chosen plan and
// the logical query (for inspection by tests and the experiment harness).
func (p *Planner) PlanSelect(sel *sqlparser.SelectStmt) (*Plan, *Query, error) {
	clk := p.Site.Clock
	start := clk.Now()
	q, err := Algebrize(sel, p.Site.Cat)
	if err != nil {
		return nil, nil, err
	}
	inferTransitivePreds(q)
	plan, err := p.planQuery(q)
	if err != nil {
		return nil, q, err
	}
	plan.Setup, plan.Pinned = clk.Now().Sub(start), uint64(q.pinned)
	return plan, q, nil
}

// cand is a partial or complete physical plan candidate. build must return a
// fresh operator tree on every call (SwitchUnion branches need independent
// trees).
type cand struct {
	build     func() (exec.Operator, error)
	schema    *exec.Schema
	cost      float64
	rows      float64
	delivered cc.Delivered
	shape     string
	usesLocal bool
	guards    int
	// localLeaves / remoteLeaves count how the plan accesses its base-table
	// instances (a guarded view access counts as local).
	localLeaves, remoteLeaves int
	// order lists the qualified columns ("binding.col") the output is
	// sorted ascending by, or nil if unordered. Enables merge joins.
	order []string
	// dop is the degree of parallelism: the widest ParallelScan in the
	// subtree, or 0 for fully serial candidates.
	dop int
}

// costDOP returns the worker count the cost model assumes for parallel
// scans: MaxDOP if set, else GOMAXPROCS, capped at maxCostDOP so plan
// choices stay stable across machines.
func (p *Planner) costDOP() int {
	d := p.Opts.MaxDOP
	if d <= 0 {
		d = runtime.GOMAXPROCS(0)
	}
	if d > maxCostDOP {
		d = maxCostDOP
	}
	if d < 1 {
		d = 1
	}
	return d
}

func (p *Planner) planQuery(q *Query) (*Plan, error) {
	valid, err := p.candidates(q)
	if err != nil {
		return nil, err
	}
	best := valid[0]
	for _, f := range valid[1:] {
		if p.Opts.ForceLocal && f.usesLocal != best.usesLocal {
			if f.usesLocal {
				best = f
			}
			continue
		}
		// Cheaper by more than rounding noise: a plan with its guard at the
		// root costs what its twin with the guards below the finishing step
		// costs when the guard always passes, and comes first.
		if f.cost < best.cost*(1-1e-9) {
			best = f
		}
	}
	return best.plan()
}

// Candidates algebrizes sel and returns every complete plan the planner
// chooses among — those whose delivered consistency satisfies the
// constraint — in enumeration order, for the plan-regret report that times
// them all.
func (p *Planner) Candidates(sel *sqlparser.SelectStmt) ([]*Plan, error) {
	q, err := Algebrize(sel, p.Site.Cat)
	if err != nil {
		return nil, err
	}
	inferTransitivePreds(q)
	valid, err := p.candidates(q)
	if err != nil {
		return nil, err
	}
	plans := make([]*Plan, len(valid))
	for i, c := range valid {
		if plans[i], err = c.plan(); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// plan instantiates the candidate.
func (c *cand) plan() (*Plan, error) {
	root, err := c.build()
	if err != nil {
		return nil, err
	}
	return &Plan{
		Root:         root,
		Build:        c.build,
		Cost:         c.cost,
		Delivered:    c.delivered,
		Shape:        c.shape,
		UsesLocal:    c.usesLocal,
		Guards:       c.guards,
		LocalLeaves:  c.localLeaves,
		RemoteLeaves: c.remoteLeaves,
		DOP:          max(c.dop, 1),
	}, nil
}

// candidates enumerates the complete plans for q that satisfy its
// consistency constraint.
func (p *Planner) candidates(q *Query) ([]*cand, error) {
	// Split residual conjuncts: those touching semi/anti leaves must be
	// evaluated inside the corresponding join; the rest filter at the top.
	semiResiduals, innerResiduals, err := splitResiduals(q)
	if err != nil {
		return nil, err
	}

	joinCands, err := p.enumerateJoins(q, semiResiduals)
	if err != nil && (p.Site.IsBackend() || !errors.Is(err, errNoJoinPlan)) {
		// A cache survives an enumeration the constraint emptied: the
		// ship-everything plan below always satisfies it.
		return nil, err
	}
	// At a cache the plans that fall back, from a guard at the root, to the
	// ship-everything remote plan (the paper's plan 1) come first, to win
	// ties, and that plan itself last.
	var finals []*cand
	var remote *cand
	if !p.Site.IsBackend() {
		remote = p.wholeRemoteCand(q)
		if finals, err = p.hoistedCands(q, remote, semiResiduals, innerResiduals); err != nil {
			return nil, err
		}
	}
	for _, jc := range joinCands {
		fc, err := p.finish(q, jc, innerResiduals)
		if err != nil {
			return nil, err
		}
		finals = append(finals, fc)
	}
	if remote != nil {
		finals = append(finals, remote)
	}
	// Keep only plans whose delivered consistency satisfies the required
	// property (compile-time consistency checking). The back end is the
	// master: everything it produces is current and consistent.
	var valid []*cand
	for _, f := range finals {
		if p.skipConsistency() || f.delivered.Satisfies(q.Constraint) {
			valid = append(valid, f)
		}
	}
	if len(valid) == 0 {
		return nil, fmt.Errorf("opt: no plan satisfies consistency constraint %v", q.Constraint)
	}
	return valid, nil
}

// splitResiduals classifies multi-leaf non-equi conjuncts.
func splitResiduals(q *Query) (map[cc.InstanceID][]sqlparser.Expr, []sqlparser.Expr, error) {
	semi := map[cc.InstanceID][]sqlparser.Expr{}
	var inner []sqlparser.Expr
	for _, r := range q.Residual {
		var touchesSemi *Leaf
		for _, l := range q.Leaves {
			if l.Join != exec.JoinInner && exprTouches(r, l.Binding) {
				if touchesSemi != nil {
					return nil, nil, fmt.Errorf("opt: predicate spans two EXISTS subqueries")
				}
				touchesSemi = l
			}
		}
		if touchesSemi != nil {
			semi[touchesSemi.ID] = append(semi[touchesSemi.ID], r)
		} else {
			inner = append(inner, r)
		}
	}
	return semi, inner, nil
}

func exprTouches(e sqlparser.Expr, binding string) bool {
	found := false
	walkExpr(e, func(x sqlparser.Expr) {
		if ref, ok := x.(*sqlparser.ColumnRef); ok && ref.Table == binding {
			found = true
		}
	})
	return found
}

// inferTransitivePreds propagates equality-with-literal predicates across
// equi-join edges (e.g. C.c_custkey = $K and C.c_custkey = O.o_custkey
// implies O.o_custkey = $K), which makes per-leaf remote fetches selective.
func inferTransitivePreds(q *Query) {
	for pass := 0; pass < 2; pass++ {
		for _, j := range q.Joins {
			l, r := q.Leaf(j.LeftLeaf), q.Leaf(j.RightLeaf)
			copyEqLiteral(l, j.LeftCol, r, j.RightCol)
			copyEqLiteral(r, j.RightCol, l, j.LeftCol)
		}
	}
}

func copyEqLiteral(from *Leaf, fromCol string, to *Leaf, toCol string) {
	for _, pred := range from.Preds {
		be, ok := pred.(*sqlparser.BinaryExpr)
		if !ok || be.Op != sqlparser.OpEQ {
			continue
		}
		col, lit, op := normalizeCompare(be)
		if op != sqlparser.OpEQ || col != fromCol {
			continue
		}
		// The copy keeps the literal, slot and all: it stays a parameter.
		ref := &sqlparser.ColumnRef{Table: to.Binding, Column: toCol}
		dup := slices.ContainsFunc(to.Preds, func(existing sqlparser.Expr) bool {
			e, ok := existing.(*sqlparser.BinaryExpr)
			if !ok || e.Op != sqlparser.OpEQ {
				return false
			}
			l, okL := e.Left.(*sqlparser.ColumnRef)
			r, okR := e.Right.(*sqlparser.Literal)
			return okL && okR && *l == *ref && to.pins.same(r, lit)
		})
		if !dup {
			to.Preds = append(to.Preds, &sqlparser.BinaryExpr{Op: sqlparser.OpEQ, Left: ref, Right: lit})
		}
	}
}

// ---- leaf access ----

// leafSchema is the canonical output schema of any access path for a leaf:
// exactly the needed columns, bound to the leaf's binding.
func leafSchema(leaf *Leaf) *exec.Schema {
	cols := make([]exec.Col, len(leaf.Cols))
	for i, name := range leaf.Cols {
		cols[i] = exec.Col{Binding: leaf.Binding, Name: name, Kind: leaf.Table.Column(name).Type}
	}
	return exec.NewSchema(cols...)
}

// storedSchema is the schema of rows as stored in a table or view.
func storedSchema(def *catalog.Table, binding string) *exec.Schema {
	cols := make([]exec.Col, len(def.Columns))
	for i, c := range def.Columns {
		cols[i] = exec.Col{Binding: binding, Name: c.Name, Kind: c.Type}
	}
	return exec.NewSchema(cols...)
}

// accessPath describes how to drive a stored table for a leaf's predicates.
type accessPath struct {
	index string
	keyRange
	residual  []sqlparser.Expr // predicates not absorbed by the range
	cost      float64
	usedIndex bool
}

// keyRange is a range on an index's leading column. loSlot and hiSlot are the
// slots of the literals the ends came from (0 for none): a serial scan reads
// such an end from the execution's parameters.
type keyRange struct {
	lo, hi         storage.Bound
	loSlot, hiSlot int
}

// chooseAccessPath picks the best index for the leaf's predicates against
// the given stored definition (a base table at the back end, or a
// materialized view at the cache).
func chooseAccessPath(pn *pins, def *catalog.Table, stats *catalog.TableStats, preds []sqlparser.Expr, outRows float64) accessPath {
	total := float64(stats.Rows())
	best := accessPath{residual: preds, cost: total*costScanRow + outRows*costRow}
	for _, idx := range def.Indexes {
		rng, used, residual := boundsForIndex(pn, idx, preds)
		if !used {
			continue
		}
		sel := 1.0
		for _, p := range preds {
			if !slices.Contains(residual, p) {
				sel *= selectivity(pn, stats, p)
			}
		}
		touched := total * sel
		c := costSeek + touched*costScanRow + outRows*costRow
		if !idx.Clustered {
			c += touched * costSeek * 0.1
		}
		if c < best.cost {
			best = accessPath{index: idx.Name, keyRange: rng, residual: residual, cost: c, usedIndex: true}
		}
	}
	return best
}

// boundsForIndex derives a key range on the index's leading column from the
// predicates. used=false if no predicate constrains the leading column. An
// end set by one predicate alone is not read; two that compete for an end are
// compared, which pins both.
func boundsForIndex(pn *pins, idx *catalog.Index, preds []sqlparser.Expr) (rng keyRange, used bool, residual []sqlparser.Expr) {
	lead := idx.Columns[0]
	var lo, hi *sqlparser.Literal
	loIncl, hiIncl := true, true
	// tighter reports whether lit bounds more tightly than cur, the end held
	// (nil for none): above it for a lower end (sign 1), below it for an
	// upper one (-1), or level with it when ties go to the newcomer.
	tighter := func(lit, cur *sqlparser.Literal, sign int, ties bool) bool {
		if cur == nil {
			return true
		}
		c := pn.val(lit).Compare(pn.val(cur)) * sign
		return c > 0 || c == 0 && ties
	}
	for _, p := range preds {
		absorbed := false
		switch e := p.(type) {
		case *sqlparser.BinaryExpr:
			col, lit, op := normalizeCompare(e)
			if col == lead && lit.Kind() != sqltypes.KindNull {
				absorbed = true
				switch op {
				case sqlparser.OpEQ:
					lo, hi, loIncl, hiIncl = lit, lit, true, true
				case sqlparser.OpGT:
					if tighter(lit, lo, 1, true) {
						lo, loIncl = lit, false
					}
				case sqlparser.OpGE:
					if tighter(lit, lo, 1, false) {
						lo, loIncl = lit, true
					}
				case sqlparser.OpLT:
					if tighter(lit, hi, -1, true) {
						hi, hiIncl = lit, false
					}
				case sqlparser.OpLE:
					if tighter(lit, hi, -1, false) {
						hi, hiIncl = lit, true
					}
				default:
					absorbed = false
				}
			}
		case *sqlparser.BetweenExpr:
			loLit, okLo := e.Lo.(*sqlparser.Literal)
			hiLit, okHi := e.Hi.(*sqlparser.Literal)
			if !e.Not && columnOf(e.Expr) == lead && okLo && okHi {
				if tighter(loLit, lo, 1, false) {
					lo, loIncl = loLit, true
				}
				if tighter(hiLit, hi, -1, false) {
					hi, hiIncl = hiLit, true
				}
				absorbed = true
			}
		}
		if !absorbed {
			residual = append(residual, p)
		}
	}
	if lo == nil && hi == nil {
		return keyRange{}, false, preds
	}
	// The statement's own values are what a run without parameters scans.
	if lo != nil {
		rng.lo, rng.loSlot = storage.Bound{Vals: sqltypes.Row{lo.Val}, Inclusive: loIncl}, lo.Slot
	}
	if hi != nil {
		rng.hi, rng.hiSlot = storage.Bound{Vals: sqltypes.Row{hi.Val}, Inclusive: hiIncl}, hi.Slot
	}
	return rng, true, residual
}

// buildStoredAccess constructs the operator for scanning a stored object and
// projecting to the leaf schema.
func buildStoredAccess(tbl *storage.Table, binding string, path accessPath, leaf *Leaf) (exec.Operator, error) {
	full := storedSchema(tbl.Def(), binding)
	scan := exec.NewScan(tbl, full)
	scan.Index = path.index
	scan.Lo, scan.Hi, scan.LoParam, scan.HiParam = path.lo, path.hi, path.loSlot, path.hiSlot
	if len(path.residual) > 0 {
		var err error
		if scan.Filter, err = exec.CompilePred(andAll(path.residual), full); err != nil {
			return nil, err
		}
	}
	return projectTo(scan, leafSchema(leaf))
}

// clusteredPath reports whether the access path drives the clustered index
// (morsel partitioning only applies to the primary B+-tree).
func clusteredPath(def *catalog.Table, path accessPath) bool {
	if path.index == "" {
		return true
	}
	for _, idx := range def.Indexes {
		if idx.Name == path.index {
			return idx.Clustered
		}
	}
	return false
}

// parallelAccess decides whether a morsel-parallel scan of the chosen path
// beats the serial access, returning its estimated cost and worker count.
// Only clustered paths qualify (morsels partition the primary key range),
// and a parallel scan is unordered — the planner keeps the ordered serial
// candidate alongside for plans that need sort order (merge-join inputs).
// A parallel scan cuts its morsels from the plan's own range, so choosing one
// pins the literals the range came from.
func (p *Planner) parallelAccess(def *catalog.Table, path accessPath, leaf *Leaf, outRows float64) (float64, int, bool) {
	dop := p.costDOP()
	if dop < 2 || !clusteredPath(def, path) {
		return 0, 0, false
	}
	c := parallelScanCost(path.cost, outRows, dop)
	if c >= path.cost {
		return 0, 0, false
	}
	leaf.pins.pin(path.loSlot)
	leaf.pins.pin(path.hiSlot)
	return c, dop, true
}

// buildParallelAccess constructs the morsel-parallel counterpart of
// buildStoredAccess for a clustered access path.
func (p *Planner) buildParallelAccess(tbl *storage.Table, binding string, path accessPath, leaf *Leaf) (exec.Operator, error) {
	full := storedSchema(tbl.Def(), binding)
	ps := exec.NewParallelScan(tbl, full)
	ps.Lo, ps.Hi = path.lo, path.hi
	ps.DOP = p.Opts.MaxDOP // 0 means GOMAXPROCS
	if len(path.residual) > 0 {
		var err error
		if ps.Filter, err = exec.CompilePred(andAll(path.residual), full); err != nil {
			return nil, err
		}
	}
	return projectTo(ps, leafSchema(leaf))
}

// projectTo narrows an operator's output to the target schema by column
// lookup.
func projectTo(child exec.Operator, target *exec.Schema) (exec.Operator, error) {
	src := child.Schema()
	// If the schemas already line up, skip the projection.
	if len(src.Cols) == len(target.Cols) {
		same := true
		for i := range src.Cols {
			if src.Cols[i] != target.Cols[i] {
				same = false
				break
			}
		}
		if same {
			return child, nil
		}
	}
	cols := make([]exec.Expr, len(target.Cols))
	for i, c := range target.Cols {
		ord := src.Lookup(c.Binding, c.Name)
		if ord < 0 {
			return nil, exec.ErrNoColumn(c.Binding, c.Name)
		}
		cols[i] = exec.Expr{Col: ord}
	}
	return &exec.Project{Child: child, Exprs: cols, Out: target}, nil
}

func andAll(preds []sqlparser.Expr) sqlparser.Expr {
	var out sqlparser.Expr
	for _, p := range preds {
		if out == nil {
			out = p
		} else {
			out = &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, Left: out, Right: p}
		}
	}
	return out
}

// accessOrder derives the output ordering of a stored access path: the
// driving index's key columns (the clustered PK for sequential scans),
// qualified by the leaf binding and truncated at the first column the leaf
// does not fetch.
func accessOrder(def *catalog.Table, path accessPath, leaf *Leaf) []string {
	var cols []string
	if path.index == "" {
		cols = def.PrimaryKey
	} else {
		for _, idx := range def.Indexes {
			if idx.Name == path.index {
				cols = idx.Columns
			}
		}
	}
	var out []string
	for _, c := range cols {
		found := false
		for _, have := range leaf.Cols {
			if have == c {
				found = true
				break
			}
		}
		if !found {
			break
		}
		out = append(out, leaf.Binding+"."+c)
	}
	return out
}

// leafCandidates returns the access-path candidates for one leaf.
func (p *Planner) leafCandidates(q *Query, leaf *Leaf) ([]*cand, error) {
	outRows := leafRows(leaf)
	schema := leafSchema(leaf)
	var cands []*cand

	if tbl := p.Site.LocalTable(leaf.Table.Name); tbl != nil {
		// Base table stored locally (the back end).
		path := chooseAccessPath(leaf.pins, tbl.Def(), leaf.Table.Stats, leaf.Preds, outRows)
		cands = append(cands, &cand{
			build:       func() (exec.Operator, error) { return buildStoredAccess(tbl, leaf.Binding, path, leaf) },
			schema:      schema,
			cost:        path.cost,
			rows:        outRows,
			delivered:   cc.DeliverScan(catalog.MasterRegionID, leaf.ID),
			shape:       fmt.Sprintf("Scan(%s)", leaf.Table.Name),
			localLeaves: 1,
			order:       accessOrder(tbl.Def(), path, leaf),
		})
		// Morsel-parallel variant of the same access: unordered, so it is a
		// second candidate next to the ordered serial scan, not a
		// replacement.
		if pcost, dop, ok := p.parallelAccess(tbl.Def(), path, leaf, outRows); ok {
			cands = append(cands, &cand{
				build:       func() (exec.Operator, error) { return p.buildParallelAccess(tbl, leaf.Binding, path, leaf) },
				schema:      schema,
				cost:        pcost,
				rows:        outRows,
				delivered:   cc.DeliverScan(catalog.MasterRegionID, leaf.ID),
				shape:       fmt.Sprintf("ParScan(%s)", leaf.Table.Name),
				localLeaves: 1,
				dop:         dop,
			})
		}
		return cands, nil
	}
	if p.Site.IsBackend() {
		return nil, fmt.Errorf("opt: back end has no storage for table %s", leaf.Table.Name)
	}

	// Remote fetch candidate.
	remote := p.remoteLeafCand(leaf, schema)
	cands = append(cands, remote)

	// Matching materialized views, each wrapped in a currency guard.
	for _, view := range p.Site.Cat.ViewsOf(leaf.Table.Name) {
		if v, ok := p.admitView(q, leaf, view); ok {
			cands = append(cands, p.viewCand(leaf, v, remote, schema))
		}
	}
	return cands, nil
}

func (p *Planner) remoteLeafCand(leaf *Leaf, schema *exec.Schema) *cand {
	return &cand{
		build:        p.remoteBuild(func() *sqlparser.SelectStmt { return leafFetch(leaf) }, schema),
		schema:       schema,
		cost:         remoteFetchCost(leaf),
		rows:         leafRows(leaf),
		delivered:    cc.DeliverScan(catalog.MasterRegionID, leaf.ID),
		shape:        fmt.Sprintf("Remote(%s)", leaf.Table.Name),
		remoteLeaves: 1,
	}
}

// viewAccess is a materialized view admitted to serve a leaf: its local
// storage, its currency region, and the bound the query puts on the leaf
// (MaxInt64 when it puts none).
type viewAccess struct {
	view        *catalog.View
	tbl         *storage.Table
	region      *catalog.Region
	bound       time.Duration
	constrained bool
}

// admitView decides whether a view may serve a leaf, at a view scan and at an
// index nested-loop join alike: it must match the leaf, belong to the region
// of the hoisting pass if there is one, be stored here, and, unless guards are
// off, come from a region that can ever be fresh enough — one whose minimum
// currency exceeds the bound is discarded at compile time (the paper's "simple
// optimization").
func (p *Planner) admitView(q *Query, leaf *Leaf, view *catalog.View) (viewAccess, bool) {
	if !viewMatches(view, leaf) || (p.hoist != 0 && view.RegionID != p.hoist) {
		return viewAccess{}, false
	}
	v := viewAccess{view: view, tbl: p.Site.LocalView(view.Name), region: p.Site.Cat.Region(view.RegionID)}
	if v.tbl == nil || v.region == nil {
		return viewAccess{}, false
	}
	v.bound, v.constrained = q.Constraint.BoundFor(leaf.ID)
	if !v.constrained {
		v.bound = time.Duration(math.MaxInt64) // unconstrained: always fresh enough
	}
	if !p.Opts.NoGuards && v.bound < v.region.MinCurrency() {
		return viewAccess{}, false
	}
	return v, true
}

// viewCand builds the guarded local-view candidate for a leaf.
func (p *Planner) viewCand(leaf *Leaf, v viewAccess, remote *cand, schema *exec.Schema) *cand {
	outRows := leafRows(leaf)
	path := chooseAccessPath(leaf.pins, v.tbl.Def(), leaf.Table.Stats, leaf.Preds, outRows)
	local := &cand{
		build:       func() (exec.Operator, error) { return buildStoredAccess(v.tbl, leaf.Binding, path, leaf) },
		schema:      schema,
		cost:        path.cost,
		rows:        outRows,
		delivered:   cc.DeliverScan(v.view.RegionID, leaf.ID),
		shape:       fmt.Sprintf("View(%s)", v.view.Name),
		usesLocal:   true,
		localLeaves: 1,
	}
	// Analytic view scans parallelize just like base-table scans; the guard
	// decision is unaffected (it is evaluated once at Open, before any
	// workers start).
	if pcost, dop, ok := p.parallelAccess(v.tbl.Def(), path, leaf, outRows); ok {
		local.cost, local.dop = pcost, dop
		local.build = func() (exec.Operator, error) {
			return p.buildParallelAccess(v.tbl, leaf.Binding, path, leaf)
		}
	}
	label := fmt.Sprintf("Guard(%s|%s)", v.view.Name, remote.shape)
	return p.guardedCand(local, remote, v.region, v.bound, v.constrained, label)
}

// viewMatches implements the prototype's view-matching test: the view is a
// selection/projection of the leaf's table covering all needed columns, and
// the view's predicate is implied by the leaf's predicates (so the view
// contains every row the leaf needs).
func viewMatches(view *catalog.View, leaf *Leaf) bool {
	if view.BaseTable != leaf.Table.Name {
		return false
	}
	for _, col := range leaf.Cols {
		if view.ColumnIndex(col) < 0 {
			return false
		}
	}
	for _, vp := range view.Preds {
		if !predImplied(leaf.pins, vp, leaf.Preds) {
			return false
		}
	}
	return true
}

// predImplied reports whether some leaf predicate implies the view
// predicate (conservatively). It reads the literals compared with the view
// predicate's column, and no others.
func predImplied(pn *pins, vp catalog.SimplePred, preds []sqlparser.Expr) bool {
	for _, p := range preds {
		be, ok := p.(*sqlparser.BinaryExpr)
		if !ok {
			// A BETWEEN implies a one-sided view predicate through the
			// relevant end alone.
			if bt, ok := p.(*sqlparser.BetweenExpr); ok && !bt.Not && columnOf(bt.Expr) == vp.Column {
				loLit, okLo := bt.Lo.(*sqlparser.Literal)
				hiLit, okHi := bt.Hi.(*sqlparser.Literal)
				if okLo && okHi {
					lo, hi := pn.val(loLit), pn.val(hiLit)
					switch vp.Op {
					case catalog.OpGT, catalog.OpGE:
						if rangeImplies(lo, sqlparser.OpGE, vp) {
							return true
						}
					case catalog.OpLT, catalog.OpLE:
						if rangeImplies(hi, sqlparser.OpLE, vp) {
							return true
						}
					case catalog.OpEQ:
						if lo.Compare(vp.Value) == 0 && hi.Compare(vp.Value) == 0 {
							return true
						}
					}
				}
			}
			continue
		}
		col, l, op := normalizeCompare(be)
		if col != vp.Column || l.Kind() == sqltypes.KindNull {
			continue
		}
		lit := pn.val(l)
		switch vp.Op {
		case catalog.OpEQ:
			if op == sqlparser.OpEQ && lit.Compare(vp.Value) == 0 {
				return true
			}
		default:
			if rangeImplies(lit, op, vp) && (op == sqlparser.OpEQ || sameDirection(op, vp.Op)) {
				return true
			}
		}
	}
	return false
}

func sameDirection(qOp sqlparser.BinOp, vOp catalog.CompareOp) bool {
	switch vOp {
	case catalog.OpGT, catalog.OpGE:
		return qOp == sqlparser.OpGT || qOp == sqlparser.OpGE
	case catalog.OpLT, catalog.OpLE:
		return qOp == sqlparser.OpLT || qOp == sqlparser.OpLE
	default:
		return false
	}
}

// rangeImplies reports whether "col qOp lit" implies the view predicate.
func rangeImplies(lit sqltypes.Value, qOp sqlparser.BinOp, vp catalog.SimplePred) bool {
	c := lit.Compare(vp.Value)
	switch vp.Op {
	case catalog.OpGT:
		switch qOp {
		case sqlparser.OpEQ, sqlparser.OpGE:
			return c > 0
		case sqlparser.OpGT:
			return c >= 0
		}
	case catalog.OpGE:
		switch qOp {
		case sqlparser.OpEQ, sqlparser.OpGE, sqlparser.OpGT:
			return c >= 0
		}
	case catalog.OpLT:
		switch qOp {
		case sqlparser.OpEQ, sqlparser.OpLE:
			return c < 0
		case sqlparser.OpLT:
			return c <= 0
		}
	case catalog.OpLE:
		switch qOp {
		case sqlparser.OpEQ, sqlparser.OpLE, sqlparser.OpLT:
			return c <= 0
		}
	}
	return false
}

// guardedCand is the one place a guarded plan is made: local goes under a
// currency guard on region with remote as its fall-back, the paper's
// SwitchUnion (§3.2). It costs p·c_local + (1−p)·c_remote + c_cg, where p is
// the chance the region is fresh enough for bound at run time (1 when the
// query is unconstrained), and delivers the meet of its two branches. Under
// NoGuards, and in a hoisting pass (whose one guard goes at the root), local
// stays unguarded.
func (p *Planner) guardedCand(local, remote *cand, region *catalog.Region, bound time.Duration, constrained bool, label string) *cand {
	if p.Opts.NoGuards || p.hoist != 0 {
		return local
	}
	prob := 1.0
	if constrained {
		prob = cc.LocalProbability(bound, region.UpdateDelay, region.UpdateInterval)
	}
	var word *storage.Word
	if p.Site.Word != nil {
		word = p.Site.Word(region.ID)
	}
	guard := currencyGuard(word, bound, p.Opts.MinSync)
	localBuild, remoteBuild := local.build, remote.build
	return &cand{
		build: func() (exec.Operator, error) {
			l, err := localBuild()
			if err != nil {
				return nil, err
			}
			r, err := remoteBuild()
			if err != nil {
				return nil, err
			}
			return &exec.SwitchUnion{
				Children: []exec.Operator{l, r}, Selector: guard, Label: label,
				Region: region.ID, Bound: obs.NormalizeBound(bound), Word: word,
			}, nil
		},
		schema:       local.schema,
		cost:         prob*local.cost + (1-prob)*remote.cost + costGuard,
		rows:         local.rows,
		delivered:    cc.SwitchUnion(local.delivered, remote.delivered),
		shape:        label,
		usesLocal:    true,
		guards:       local.guards + 1,
		localLeaves:  local.localLeaves,
		remoteLeaves: local.remoteLeaves,
		dop:          local.dop,
	}
}

// currencyGuard returns a SwitchUnion's selector: the local branch (0) iff
// the region's replicated heartbeat, which its state word publishes, is within
// bound of the query's start — the paper's EXISTS(SELECT 1 FROM Heartbeat_R
// WHERE TimeStamp > getdate() - B) — and, under a timeline-consistency floor
// (Section 2.3), at or past the floor. It returns the heartbeat it judged,
// from which the decision's staleness and the result's sources are taken. It
// keeps no state and writes nothing, so every tree of the plan shares it.
func currencyGuard(word *storage.Word, bound time.Duration, minSync time.Time) exec.Selector {
	return func(ctx *exec.EvalContext) (int, time.Time) {
		ts, ok := word.Synced()
		if ok && (bound == time.Duration(math.MaxInt64) || ts.After(ctx.Now.Add(-bound))) && !ts.Before(minSync) {
			return 0, ts // fresh enough: local branch
		}
		return 1, ts // stale, behind the floor or never synchronized: remote
	}
}

// ---- join enumeration ----

var errNoJoinPlan = errors.New("opt: join enumeration produced no plan")

func (p *Planner) enumerateJoins(q *Query, semiResiduals map[cc.InstanceID][]sqlparser.Expr) ([]*cand, error) {
	n := len(q.Leaves)
	if n > 16 {
		return nil, fmt.Errorf("opt: too many tables (%d)", n)
	}
	leafCands := make([][]*cand, n)
	for i, leaf := range q.Leaves {
		lcs, err := p.leafCandidates(q, leaf)
		if err != nil {
			return nil, err
		}
		// Drop candidates that already violate the constraint.
		var ok []*cand
		for _, lc := range lcs {
			if p.skipConsistency() || !lc.delivered.Violates(q.Constraint) {
				ok = append(ok, lc)
			}
		}
		if len(ok) == 0 {
			return nil, fmt.Errorf("opt: no valid access path for %s", leaf.Binding)
		}
		leafCands[i] = ok
	}
	if n == 1 {
		if q.Leaves[0].Join != exec.JoinInner {
			return nil, fmt.Errorf("opt: query has only an EXISTS subquery table")
		}
		return leafCands[0], nil
	}

	states := map[uint32][]*cand{}
	for i, leaf := range q.Leaves {
		if leaf.Join != exec.JoinInner {
			continue
		}
		states[1<<uint(i)] = prune(leafCands[i])
	}
	full := uint32(1<<uint(n)) - 1
	// Grow states by adding one leaf at a time, in ascending mask order, so
	// equal-cost candidates arrive in one order on every run.
	for size := 1; size < n; size++ {
		masks := make([]uint32, 0, len(states))
		for mask := range states {
			masks = append(masks, mask)
		}
		slices.Sort(masks)
		for _, mask := range masks {
			cands := states[mask]
			if bits.OnesCount32(mask) != size {
				continue
			}
			connectedExists := false
			for j := 0; j < n; j++ {
				if mask&(1<<uint(j)) != 0 {
					continue
				}
				if p.connected(q, mask, j) {
					connectedExists = true
					break
				}
			}
			for j := 0; j < n; j++ {
				bit := uint32(1 << uint(j))
				if mask&bit != 0 {
					continue
				}
				leaf := q.Leaves[j]
				conn := p.connected(q, mask, j)
				if !conn && connectedExists {
					continue // defer cartesian products
				}
				if leaf.Join != exec.JoinInner {
					if !p.allPartnersIn(q, mask, j) {
						continue
					}
					if !allResidualLeavesIn(q, semiResiduals[leaf.ID], mask, leaf) {
						continue
					}
				}
				newMask := mask | bit
				for _, left := range cands {
					for _, right := range leafCands[j] {
						joined, err := p.joinCands(q, left, right, leaf, semiResiduals[leaf.ID])
						if err != nil {
							return nil, err
						}
						for _, jc := range joined {
							if !p.skipConsistency() && jc.delivered.Violates(q.Constraint) {
								continue
							}
							states[newMask] = append(states[newMask], jc)
						}
					}
				}
			}
		}
		for mask := range states {
			states[mask] = prune(states[mask])
		}
	}
	result := states[full]
	if len(result) == 0 {
		return nil, errNoJoinPlan
	}
	return result, nil
}

// connected reports whether leaf j has an equi-join edge into the mask.
func (p *Planner) connected(q *Query, mask uint32, j int) bool {
	id := q.Leaves[j].ID
	for _, jp := range q.Joins {
		other := cc.InstanceID(0)
		if jp.LeftLeaf == id {
			other = jp.RightLeaf
		} else if jp.RightLeaf == id {
			other = jp.LeftLeaf
		} else {
			continue
		}
		for i, l := range q.Leaves {
			if l.ID == other && mask&(1<<uint(i)) != 0 {
				return true
			}
		}
	}
	return false
}

// allPartnersIn reports whether every join edge of leaf j lands inside mask.
func (p *Planner) allPartnersIn(q *Query, mask uint32, j int) bool {
	id := q.Leaves[j].ID
	for _, jp := range q.Joins {
		var other cc.InstanceID
		if jp.LeftLeaf == id {
			other = jp.RightLeaf
		} else if jp.RightLeaf == id {
			other = jp.LeftLeaf
		} else {
			continue
		}
		in := false
		for i, l := range q.Leaves {
			if l.ID == other && mask&(1<<uint(i)) != 0 {
				in = true
			}
		}
		if !in {
			return false
		}
	}
	return true
}

func allResidualLeavesIn(q *Query, residuals []sqlparser.Expr, mask uint32, adding *Leaf) bool {
	for _, r := range residuals {
		for i, l := range q.Leaves {
			if l.ID == adding.ID {
				continue
			}
			if exprTouches(r, l.Binding) && mask&(1<<uint(i)) == 0 {
				return false
			}
		}
	}
	return true
}

// prune keeps the cheapest candidates, at most keepPerState with distinct
// (delivered property, interesting order) pairs. Keeping orders distinct is
// what lets an ordered serial scan survive next to a cheaper unordered
// parallel scan of the same data — the classic interesting-orders rule, here
// so merge joins keep their serial ordered inputs.
func prune(cands []*cand) []*cand {
	if len(cands) <= 1 {
		return cands
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })
	var out []*cand
	seen := map[string]bool{}
	for _, c := range cands {
		key := c.delivered.String()
		if len(c.order) > 0 {
			key += " ordered:" + strings.Join(c.order, ",")
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
		if len(out) >= keepPerState {
			break
		}
	}
	return out
}

// joinCands builds candidates joining a prefix with one leaf: a hash join
// over any leaf access, plus an index nested-loop join when the leaf has a
// locally stored object with a suitable index (guarded at the cache).
func (p *Planner) joinCands(q *Query, left, right *cand, leaf *Leaf, semiRes []sqlparser.Expr) ([]*cand, error) {
	edges := joinEdges(q, left.schema, leaf)
	hj, err := p.hashJoinCand(left, right, leaf, edges, semiRes)
	if err != nil {
		return nil, err
	}
	out := []*cand{hj}
	nlj, ok, err := p.indexLoopCand(q, left, leaf, edges, semiRes)
	if err != nil {
		return nil, err
	}
	if ok {
		out = append(out, nlj)
	}
	mj, ok, err := p.mergeJoinCand(q, left, leaf, edges, semiRes)
	if err != nil {
		return nil, err
	}
	if ok {
		out = append(out, mj)
	}
	return out, nil
}

// joined completes c as the operator over its inputs — a join's two sides,
// or the one plan a finishing step sits on: it delivers their join, uses
// local data if any input does, and carries their guards, leaves and widest
// parallelism.
func joined(c *cand, inputs ...*cand) *cand {
	c.delivered = inputs[0].delivered
	for _, in := range inputs[1:] {
		c.delivered = cc.Join(c.delivered, in.delivered)
	}
	for _, in := range inputs {
		c.usesLocal = c.usesLocal || in.usesLocal
		c.guards += in.guards
		c.localLeaves += in.localLeaves
		c.remoteLeaves += in.remoteLeaves
		c.dop = max(c.dop, in.dop)
	}
	return c
}

// edgeResiduals returns preds followed by the equality of every join edge not
// in key: the edges a join operator's key does not evaluate are checked as
// residual predicates.
func edgeResiduals(preds []sqlparser.Expr, leaf *Leaf, edges, key []joinEdge) []sqlparser.Expr {
	out := slices.Clone(preds)
	for _, e := range edges {
		if !slices.Contains(key, e) {
			out = append(out, &sqlparser.BinaryExpr{
				Op:    sqlparser.OpEQ,
				Left:  e.prefixExpr,
				Right: &sqlparser.ColumnRef{Table: leaf.Binding, Column: e.leafCol},
			})
		}
	}
	return out
}

// mergeJoinCand builds a sort-merge join when both sides already arrive
// ordered on a join column: the prefix's first ordering column matches one
// edge's prefix side, and some access path for the leaf is ordered on that
// edge's leaf column. Only unguarded accesses keep an ordering, so merge
// joins arise at the back end (and under NoGuards ablations).
func (p *Planner) mergeJoinCand(q *Query, left *cand, leaf *Leaf, edges []joinEdge, semiRes []sqlparser.Expr) (*cand, bool, error) {
	if len(left.order) == 0 || len(edges) == 0 {
		return nil, false, nil
	}
	k := slices.IndexFunc(edges, func(e joinEdge) bool { return e.prefixExpr.SQL() == left.order[0] })
	if k < 0 {
		return nil, false, nil
	}
	edge := edges[k]
	// The leaf side must have an ordered access on edge.leafCol.
	rights, err := p.leafCandidates(q, leaf)
	if err != nil {
		return nil, false, err
	}
	var right *cand
	want := leaf.Binding + "." + edge.leafCol
	for _, rc := range rights {
		if len(rc.order) > 0 && rc.order[0] == want {
			if right == nil || rc.cost < right.cost {
				right = rc
			}
		}
	}
	if right == nil {
		return nil, false, nil
	}
	lk, rk, err := keyCols(edges[k:k+1], leaf.Binding, right.schema)
	if err != nil {
		return nil, false, err
	}
	outSchema := left.schema
	if leaf.Join == exec.JoinInner {
		outSchema = exec.Concat(left.schema, right.schema)
	}
	outRows := estimateJoinOut(left.rows, right.rows, leaf, edges)
	leftBuild, rightBuild := left.build, right.build
	leftSchema, rightSchema := left.schema, right.schema
	kind := leaf.Join
	residuals := edgeResiduals(semiRes, leaf, edges, edges[k:k+1])
	build := func() (exec.Operator, error) {
		l, err := leftBuild()
		if err != nil {
			return nil, err
		}
		r, err := rightBuild()
		if err != nil {
			return nil, err
		}
		var res exec.Compiled
		if pred := andAll(residuals); pred != nil {
			res, err = exec.Compile(pred, exec.Concat(leftSchema, rightSchema))
			if err != nil {
				return nil, err
			}
		}
		return exec.NewMergeJoin(l, r, lk, rk, res, kind), nil
	}
	// Merge advances both sorted streams once; per-row work is well below a
	// generic operator hop (no hashing, no seeks).
	return joined(&cand{
		build:  build,
		schema: outSchema,
		cost:   left.cost + right.cost + (left.rows+right.rows)*costRow*0.5 + outRows*costRow,
		rows:   outRows,
		shape:  fmt.Sprintf("MergeJoin(%s, %s)", left.shape, right.shape),
		order:  left.order,
	}, left, right), true, nil
}

// joinEdge is one equi-join pair usable between the prefix and the leaf: a
// prefix column, with its ordinal in the prefix schema, and a leaf column.
type joinEdge struct {
	prefixExpr *sqlparser.ColumnRef
	prefixCol  int
	leafCol    string
}

func joinEdges(q *Query, prefix *exec.Schema, leaf *Leaf) []joinEdge {
	var out []joinEdge
	for _, jp := range q.Joins {
		var other *Leaf
		var otherCol, leafCol string
		switch leaf.ID {
		case jp.LeftLeaf:
			other, otherCol, leafCol = q.Leaf(jp.RightLeaf), jp.RightCol, jp.LeftCol
		case jp.RightLeaf:
			other, otherCol, leafCol = q.Leaf(jp.LeftLeaf), jp.LeftCol, jp.RightCol
		default:
			continue
		}
		if ord := prefix.Lookup(other.Binding, otherCol); ord >= 0 {
			out = append(out, joinEdge{&sqlparser.ColumnRef{Table: other.Binding, Column: otherCol}, ord, leafCol})
		}
	}
	return out
}

// keyCols resolves the key columns of a join on edges whose leaf side
// reads schema right: the prefix columns' ordinals and the leaf columns'.
// Every tree built from the candidate shares the two slices.
func keyCols(edges []joinEdge, binding string, right *exec.Schema) (lk, rk []int, err error) {
	lk, rk = make([]int, len(edges)), make([]int, len(edges))
	for i, e := range edges {
		lk[i] = e.prefixCol
		if rk[i], err = right.Resolve(binding, e.leafCol); err != nil {
			return nil, nil, err
		}
	}
	return lk, rk, nil
}

func (p *Planner) hashJoinCand(left, right *cand, leaf *Leaf, edges []joinEdge, semiRes []sqlparser.Expr) (*cand, error) {
	lk, rk, err := keyCols(edges, leaf.Binding, right.schema)
	if err != nil {
		return nil, err
	}
	outSchema := left.schema
	if leaf.Join == exec.JoinInner {
		outSchema = exec.Concat(left.schema, right.schema)
	}
	outRows := estimateJoinOut(left.rows, right.rows, leaf, edges)
	leftBuild, rightBuild := left.build, right.build
	leftSchema, rightSchema := left.schema, right.schema
	kind := leaf.Join
	residual := andAll(semiRes)
	build := func() (exec.Operator, error) {
		l, err := leftBuild()
		if err != nil {
			return nil, err
		}
		r, err := rightBuild()
		if err != nil {
			return nil, err
		}
		var res exec.Compiled
		if residual != nil {
			joinedSchema := exec.Concat(leftSchema, rightSchema)
			res, err = exec.Compile(residual, joinedSchema)
			if err != nil {
				return nil, err
			}
		}
		return exec.NewHashJoin(l, r, lk, rk, res, kind), nil
	}
	return joined(&cand{
		build:  build,
		schema: outSchema,
		cost:   left.cost + right.cost + right.rows*costHashBuild + left.rows*costHashProbe + outRows*costRow,
		rows:   outRows,
		shape:  fmt.Sprintf("HashJoin(%s, %s)", left.shape, right.shape),
		order:  left.order, // probe rows stream through in order
	}, left, right), nil
}

func estimateJoinOut(leftRows, rightRows float64, leaf *Leaf, edges []joinEdge) float64 {
	if leaf.Join != exec.JoinInner {
		return leftRows * 0.7
	}
	if len(edges) == 0 {
		return leftRows * rightRows
	}
	return joinRows(leftRows, rightRows, leaf, edges[0].leafCol)
}

// indexLoopCand builds an index nested-loop join: the inner is a locally
// stored object (base table at the back end; a matching view at the cache)
// with an index whose leading columns are join columns. At the cache the
// whole join is wrapped in a SwitchUnion: the local branch runs the NLJ
// against the view; the remote branch hash-joins the prefix with a remote
// fetch of the leaf.
func (p *Planner) indexLoopCand(q *Query, left *cand, leaf *Leaf, edges []joinEdge, semiRes []sqlparser.Expr) (*cand, bool, error) {
	if len(edges) == 0 {
		return nil, false, nil
	}
	residualPreds := append(slices.Clone(leaf.Preds), semiRes...)
	outSchema := left.schema
	if leaf.Join == exec.JoinInner {
		outSchema = exec.Concat(left.schema, leafSchema(leaf))
	}
	outRows := estimateJoinOut(left.rows, leafRows(leaf), leaf, edges)
	matchPerOuter := outRows / math.Max(left.rows, 1)

	// nlj joins the prefix with the rows of tbl (named name) through the index
	// that covers the most join edges, or returns nil when no index leads with
	// a join column; inner says what reading the leaf from tbl delivers.
	nlj := func(tbl *storage.Table, name string, inner *cand, order []string) *cand {
		idxName, keyEdges := indexOnEdges(tbl.Def(), edges)
		if idxName == "" {
			return nil
		}
		leftBuild, leftSchema := left.build, left.schema
		innerSch := storedSchema(tbl.Def(), leaf.Binding)
		kind := leaf.Join
		// The residual is put together here, not in the build: trees of one
		// plan are built from several sessions at once.
		pred := andAll(edgeResiduals(residualPreds, leaf, edges, keyEdges))
		keys := make([]int, len(keyEdges))
		for i, e := range keyEdges {
			keys[i] = e.prefixCol
		}
		build := func() (exec.Operator, error) {
			l, err := leftBuild()
			if err != nil {
				return nil, err
			}
			var res exec.Compiled
			if pred != nil {
				res, err = exec.Compile(pred, exec.Concat(leftSchema, innerSch))
				if err != nil {
					return nil, err
				}
			}
			nlj := exec.NewIndexLoopJoin(l, tbl, idxName, innerSch, keys, res, kind)
			if kind != exec.JoinInner {
				return nlj, nil
			}
			return projectTo(nlj, exec.Concat(leftSchema, leafSchema(leaf)))
		}
		return joined(&cand{
			build:  build,
			schema: outSchema,
			cost:   left.cost + left.rows*(costSeek+matchPerOuter*costScanRow) + outRows*costRow,
			rows:   outRows,
			shape:  fmt.Sprintf("NLJ(%s, %s)", left.shape, name),
			order:  order,
		}, left, inner)
	}

	if tbl := p.Site.LocalTable(leaf.Table.Name); tbl != nil {
		c := nlj(tbl, leaf.Table.Name, &cand{delivered: cc.DeliverScan(catalog.MasterRegionID, leaf.ID), localLeaves: 1}, left.order)
		return c, c != nil, nil
	}
	if p.Site.IsBackend() {
		return nil, false, nil
	}
	// Cache: NLJ into the first admitted view with a usable index, guarded.
	// Unlike the base-table NLJ above it does not pass on the prefix's order.
	for _, view := range p.Site.Cat.ViewsOf(leaf.Table.Name) {
		v, ok := p.admitView(q, leaf, view)
		if !ok {
			continue
		}
		local := nlj(v.tbl, view.Name, &cand{delivered: cc.DeliverScan(view.RegionID, leaf.ID), usesLocal: true, localLeaves: 1}, nil)
		if local == nil {
			continue
		}
		// Remote fall-back branch: hash join with a remote fetch.
		hj, err := p.hashJoinCand(left, p.remoteLeafCand(leaf, leafSchema(leaf)), leaf, edges, semiRes)
		if err != nil {
			return nil, false, err
		}
		label := fmt.Sprintf("GuardJoin(%s|%s)", local.shape, hj.shape)
		return p.guardedCand(local, hj, v.region, v.bound, v.constrained, label), true, nil
	}
	return nil, false, nil
}

// indexOnEdges picks the index of def whose leading columns match the most
// join edges, returning its name ("" for none) and those edges in index
// column order.
func indexOnEdges(def *catalog.Table, edges []joinEdge) (string, []joinEdge) {
	var bestIdx string
	var bestEdges []joinEdge
	for _, idx := range def.Indexes {
		var matched []joinEdge
		for _, idxCol := range idx.Columns {
			i := slices.IndexFunc(edges, func(e joinEdge) bool { return e.leafCol == idxCol })
			if i < 0 {
				break
			}
			matched = append(matched, edges[i])
		}
		if len(matched) > len(bestEdges) {
			bestEdges = matched
			bestIdx = idx.Name
		}
	}
	return bestIdx, bestEdges
}

// ---- one guard at the root ----

// hoistedCands builds, for a statement whose finishing step shrinks the
// result (an aggregate or a TOP), the plans with a single currency guard at
// the root: SwitchUnion(finish(local plan) | Remote(statement)). A guard
// below the finishing step falls back to fetching the step's whole input —
// 15,000 rows for a 25-row answer — where this one ships the statement and
// gets the answer back. One guard can vouch for one currency region, so each
// region with a view of one of the statement's tables gets a planning pass
// of its own (Planner.hoist) in which that region's views are read
// unguarded and every other table is fetched remotely; the guard checks the
// tightest bound among the instances read from the region.
func (p *Planner) hoistedCands(q *Query, remote *cand, semiResiduals map[cc.InstanceID][]sqlparser.Expr, innerResiduals []sqlparser.Expr) ([]*cand, error) {
	if len(q.Aggs) == 0 && len(q.GroupBy) == 0 && q.Top == 0 || p.Opts.NoGuards {
		return nil, nil
	}
	var regions []int
	for _, leaf := range q.Leaves {
		for _, view := range p.Site.Cat.ViewsOf(leaf.Table.Name) {
			if !slices.Contains(regions, view.RegionID) {
				regions = append(regions, view.RegionID)
			}
		}
	}
	slices.Sort(regions)
	var out []*cand
	for _, id := range regions {
		region := p.Site.Cat.Region(id)
		if region == nil {
			continue
		}
		pass := *p
		pass.hoist = id
		joinCands, err := pass.enumerateJoins(q, semiResiduals)
		if err != nil && !errors.Is(err, errNoJoinPlan) {
			return nil, err
		}
		for _, jc := range joinCands {
			if !jc.usesLocal {
				continue
			}
			local, err := pass.finish(q, jc, innerResiduals)
			if err != nil {
				return nil, err
			}
			bound, constrained := time.Duration(math.MaxInt64), false
			for _, g := range jc.delivered.Groups {
				for _, inst := range g.Set {
					if b, ok := q.Constraint.BoundFor(inst); ok && g.Region == id && b < bound {
						bound, constrained = b, true
					}
				}
			}
			label := fmt.Sprintf("Guard(%s|Remote)", local.shape)
			out = append(out, p.guardedCand(local, remote, region, bound, constrained, label))
		}
	}
	return out, nil
}

// ---- finishing ----

// finish layers residual filters, aggregation, distinct, ordering, limit and
// the final projection on a join candidate.
func (p *Planner) finish(q *Query, jc *cand, innerResiduals []sqlparser.Expr) (*cand, error) {
	joinBuild, joinSchema := jc.build, jc.schema
	rows := jc.rows
	cost := jc.cost
	if len(innerResiduals) > 0 {
		rows *= 0.5
	}
	fin, rows := finishing(q, rows)
	cost += fin + rows*costRow

	build := func() (exec.Operator, error) {
		op, err := joinBuild()
		if err != nil {
			return nil, err
		}
		schema := joinSchema
		if pred := andAll(innerResiduals); pred != nil {
			f, err := exec.CompilePred(pred, schema)
			if err != nil {
				return nil, err
			}
			op = &exec.Filter{Child: op, Pred: f}
		}
		if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
			op, schema, err = buildAggregate(q, op, schema)
			if err != nil {
				return nil, err
			}
			if q.Having != nil {
				f, err := exec.CompilePred(q.Having, schema)
				if err != nil {
					return nil, err
				}
				op = &exec.Filter{Child: op, Pred: f}
			}
		}
		if len(q.OrderBy) > 0 {
			keys := make([]exec.Expr, len(q.OrderBy))
			descs := make([]bool, len(q.OrderBy))
			for i, o := range q.OrderBy {
				keys[i], err = exec.CompileExpr(o.Expr, schema)
				if err != nil {
					return nil, err
				}
				descs[i] = o.Desc
			}
			// Nothing sits between the Sort and the Limit below: TOP n lets
			// the sort keep n rows.
			op = &exec.Sort{Child: op, Keys: keys, Desc: descs, TopN: q.Top}
		}
		if q.Top > 0 {
			op = &exec.Limit{Child: op, N: q.Top}
		}
		proj := &exec.Project{Child: op, Out: q.Out, Exprs: make([]exec.Expr, len(q.Items))}
		for i, item := range q.Items {
			if proj.Exprs[i], err = exec.CompileExpr(item.Expr, schema); err != nil {
				return nil, err
			}
		}
		op = proj
		if q.Distinct {
			op = &exec.Distinct{Child: op}
		}
		return op, nil
	}
	return joined(&cand{build: build, schema: q.Out, cost: cost, rows: rows, shape: jc.shape}, jc), nil
}

// buildAggregate constructs the Aggregate operator and its output schema:
// group columns (keeping their bindings) followed by #agg.aggN columns. A
// column-pruning Project directly below is dropped — the aggregate reads
// child columns by ordinal, and over a parallel scan it then folds each leaf
// window inside the scan's workers.
func buildAggregate(q *Query, child exec.Operator, schema *exec.Schema) (exec.Operator, *exec.Schema, error) {
	if pr, ok := child.(*exec.Project); ok && pr.Columns() {
		child, schema = pr.Child, pr.Child.Schema()
	}
	agg := &exec.Aggregate{Child: child}
	var outCols []exec.Col
	for _, g := range q.GroupBy {
		ref, ok := g.(*sqlparser.ColumnRef)
		if !ok {
			return nil, nil, fmt.Errorf("opt: GROUP BY supports plain columns, got %s", g.SQL())
		}
		ord, err := schema.Resolve(ref.Table, ref.Column)
		if err != nil {
			return nil, nil, err
		}
		agg.GroupCols = append(agg.GroupCols, ord)
		outCols = append(outCols, schema.Cols[ord])
	}
	for _, ag := range q.Aggs {
		spec := exec.AggSpec{Func: ag.Func, Star: ag.Star}
		if ag.Arg != nil {
			var err error
			if spec.Arg, err = exec.CompileExpr(ag.Arg, schema); err != nil {
				return nil, nil, err
			}
		}
		agg.Aggs = append(agg.Aggs, spec)
		outCols = append(outCols, exec.Col{Binding: aggBinding, Name: ag.Ref.Column, Kind: ag.Kind})
	}
	agg.Out = exec.NewSchema(outCols...)
	return agg, agg.Out, nil
}

// wholeRemoteCand ships the entire query to the back end (plan 1).
func (p *Planner) wholeRemoteCand(q *Query) *cand {
	cost, rows := wholeRemoteCost(q)
	var ids []cc.InstanceID
	for _, l := range q.Leaves {
		ids = append(ids, l.ID)
	}
	return &cand{
		build:        p.remoteBuild(func() *sqlparser.SelectStmt { return stripCurrency(q.Stmt) }, q.Out),
		schema:       q.Out,
		cost:         cost,
		rows:         rows,
		delivered:    cc.DeliverScan(catalog.MasterRegionID, ids...),
		shape:        "Remote",
		remoteLeaves: len(q.Leaves),
	}
}

// stripCurrency removes currency clauses before shipping a query to the
// back end (whose data trivially satisfies them).
func stripCurrency(sel *sqlparser.SelectStmt) *sqlparser.SelectStmt {
	out := *sel
	out.Currency = nil
	return &out
}

// remoteBuild returns the build of a Remote operator shipping stmt. The text
// is printed and scanned once, when the first tree is built (most remote
// candidates never are), whole and cut at its slot literals: a tree run with
// parameters ships the scan of the text they make (exec.Remote.Shipment).
func (p *Planner) remoteBuild(stmt func() *sqlparser.SelectStmt, out *exec.Schema) func() (exec.Operator, error) {
	var once sync.Once
	var sql string
	var text sqlparser.Pieces
	var scan *sqlparser.PieceScan
	remoteExec := p.Site.Remote
	return func() (exec.Operator, error) {
		once.Do(func() {
			st := stmt()
			sql, text = sqlparser.SelectSQL(st), sqlparser.SelectPieces(st)
			scan = sqlparser.ScanPieces(sql, text)
		})
		r := &exec.Remote{SQL: sql, Text: text, Scan: scan, Out: out}
		r.Fetch = func(ctx *exec.EvalContext) ([]sqltypes.Row, error) { return remoteExec.QueryScanned(r.Shipment(ctx)) }
		return r, nil
	}
}

// leafFetch builds the remote query fetching one leaf's needed columns.
func leafFetch(leaf *Leaf) *sqlparser.SelectStmt {
	from := &sqlparser.TableName{Name: leaf.Table.Name}
	if leaf.Binding != leaf.Table.Name {
		from.Alias = leaf.Binding
	}
	stmt := &sqlparser.SelectStmt{From: []sqlparser.TableRef{from}, Where: andAll(leaf.Preds)}
	for _, col := range leaf.Cols {
		stmt.Items = append(stmt.Items, sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Table: leaf.Binding, Column: col}})
	}
	return stmt
}
