package opt

import (
	"fmt"
	"slices"
	"strings"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/cc"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// Algebrize turns a bound SELECT into the flat logical Query form: names
// resolved, SPJ derived tables flattened, EXISTS/IN subqueries rewritten to
// semi/anti join leaves, predicates classified, and all currency clauses
// normalized into one required consistency constraint.
func Algebrize(sel *sqlparser.SelectStmt, cat *catalog.Catalog) (*Query, error) {
	q := &Query{Stmt: sel}
	a := &algebrizer{cat: cat, bindings: map[string]cc.InstanceID{}, pins: &q.pinned}
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("opt: SELECT without FROM is handled by the trivial planner")
	}
	var reqs []cc.Requirement
	for _, tr := range sel.From {
		if err := a.addTableRef(q, tr, &reqs); err != nil {
			return nil, err
		}
	}
	// Classify WHERE conjuncts.
	if sel.Where != nil {
		if err := a.addPredicate(q, sel.Where, &reqs); err != nil {
			return nil, err
		}
	}
	// Currency clause of the outer block.
	if sel.Currency != nil {
		q.HasCurrencyClause = true
		if err := a.resolveCurrency(sel.Currency, &reqs); err != nil {
			return nil, err
		}
	}
	if err := a.finishing(q, sel); err != nil {
		return nil, err
	}
	if err := a.bind(q); err != nil {
		return nil, err
	}
	a.collectNeededColumns(q)
	if q.HasCurrencyClause {
		// Instances not mentioned in any clause default to "completely
		// current" (their own bound-0 class).
		mentioned := map[cc.InstanceID]bool{}
		for _, r := range reqs {
			for _, id := range r.Set {
				mentioned[id] = true
			}
		}
		for _, l := range q.Leaves {
			if !mentioned[l.ID] {
				reqs = append(reqs, cc.Requirement{Bound: 0, Set: []cc.InstanceID{l.ID}})
			}
		}
		q.Constraint = cc.Normalize(reqs)
	} else {
		// The paper's default: all inputs mutually consistent and current.
		var ids []cc.InstanceID
		for _, l := range q.Leaves {
			ids = append(ids, l.ID)
		}
		q.Constraint = cc.Default(ids)
	}
	return q, nil
}

type algebrizer struct {
	cat       *catalog.Catalog
	nextID    cc.InstanceID
	bindings  map[string]cc.InstanceID
	aliasMaps []aliasMap
	pins      *pins
	// cols lists the columns of every leaf, in the order the leaves were
	// made, under their bindings and with their declared kinds: what column
	// references resolve and bind against.
	cols exec.Schema
}

func (a *algebrizer) newLeaf(q *Query, table *catalog.Table, binding string, kind exec.JoinKind) (*Leaf, error) {
	if _, dup := a.bindings[binding]; dup {
		return nil, fmt.Errorf("opt: duplicate table binding %q", binding)
	}
	a.nextID++
	leaf := &Leaf{ID: a.nextID, Table: table, Binding: binding, Join: kind, pins: a.pins}
	a.bindings[binding] = leaf.ID
	for _, c := range table.Columns {
		a.cols.Cols = append(a.cols.Cols, exec.Col{Binding: binding, Name: c.Name, Kind: c.Type})
	}
	q.Leaves = append(q.Leaves, leaf)
	return leaf, nil
}

// addTableRef flattens one FROM entry into leaves and join predicates.
func (a *algebrizer) addTableRef(q *Query, tr sqlparser.TableRef, reqs *[]cc.Requirement) error {
	switch tr := tr.(type) {
	case *sqlparser.TableName:
		tbl := a.cat.Table(tr.Name)
		if tbl == nil {
			return fmt.Errorf("opt: unknown table %s", tr.Name)
		}
		_, err := a.newLeaf(q, tbl, tr.Binding(), exec.JoinInner)
		return err
	case *sqlparser.JoinRef:
		if err := a.addTableRef(q, tr.Left, reqs); err != nil {
			return err
		}
		if err := a.addTableRef(q, tr.Right, reqs); err != nil {
			return err
		}
		return a.addPredicate(q, tr.On, reqs)
	case *sqlparser.SubqueryRef:
		return a.flattenDerived(q, tr, reqs)
	default:
		return fmt.Errorf("opt: unsupported table reference %T", tr)
	}
}

// flattenDerived inlines an SPJ derived table (the paper's Q2 pattern, e.g.
// an expanded view). The derived table's output columns must be plain column
// references; the outer query's references through the derived alias are
// rewritten to the underlying bindings.
func (a *algebrizer) flattenDerived(q *Query, sub *sqlparser.SubqueryRef, reqs *[]cc.Requirement) error {
	s := sub.Select
	if len(s.GroupBy) > 0 || s.Having != nil || s.Top > 0 || s.Distinct || len(s.OrderBy) > 0 {
		return fmt.Errorf("opt: derived table %s is not a simple SPJ block", sub.Alias)
	}
	// Remember which leaves belong to the subquery for alias mapping; their
	// columns are the ones made from here on.
	inner, first := &Query{Stmt: s}, len(a.cols.Cols)
	for _, tr := range s.From {
		if err := a.addTableRef(inner, tr, reqs); err != nil {
			return err
		}
	}
	// Column map: derived alias output name -> underlying qualified ref.
	colMap := map[string]*sqlparser.ColumnRef{}
	for _, item := range s.Items {
		if item.Star {
			for _, l := range inner.Leaves {
				for _, c := range l.Table.Columns {
					if item.StarTable == "" || item.StarTable == l.Binding {
						if _, dup := colMap[strings.ToLower(c.Name)]; !dup {
							colMap[strings.ToLower(c.Name)] = &sqlparser.ColumnRef{Table: l.Binding, Column: c.Name}
						}
					}
				}
			}
			continue
		}
		ref, ok := item.Expr.(*sqlparser.ColumnRef)
		if !ok {
			return fmt.Errorf("opt: derived table %s projects a computed column; not flattenable", sub.Alias)
		}
		resolved, err := a.resolveRefIn(a.cols.Cols[first:], ref)
		if err != nil {
			return err
		}
		name := item.Alias
		if name == "" {
			name = ref.Column
		}
		colMap[strings.ToLower(name)] = resolved
	}
	a.aliasMaps = append(a.aliasMaps, aliasMap{alias: sub.Alias, cols: colMap, leaves: inner.Leaves})
	// Merge inner structure into the outer query.
	q.Leaves = append(q.Leaves, inner.Leaves...)
	q.Joins = append(q.Joins, inner.Joins...)
	q.Residual = append(q.Residual, inner.Residual...)
	if s.Where != nil {
		if err := a.addPredicate(q, s.Where, reqs); err != nil {
			return err
		}
	}
	if s.Currency != nil {
		q.HasCurrencyClause = true
		if err := a.resolveCurrency(s.Currency, reqs); err != nil {
			return err
		}
	}
	return nil
}

// aliasMap translates references through a flattened derived table.
type aliasMap struct {
	alias  string
	cols   map[string]*sqlparser.ColumnRef
	leaves []*Leaf
}

// addPredicate splits a boolean expression into conjuncts and classifies
// each one.
func (a *algebrizer) addPredicate(q *Query, e sqlparser.Expr, reqs *[]cc.Requirement) error {
	for _, conj := range conjuncts(e) {
		if err := a.classify(q, conj, reqs); err != nil {
			return err
		}
	}
	return nil
}

func conjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpAnd {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []sqlparser.Expr{e}
}

func (a *algebrizer) classify(q *Query, conj sqlparser.Expr, reqs *[]cc.Requirement) error {
	// EXISTS / NOT EXISTS -> semi/anti leaf.
	switch e := conj.(type) {
	case *sqlparser.ExistsExpr:
		return a.rewriteExists(q, e.Subquery, e.Not, nil, reqs)
	case *sqlparser.NotExpr:
		if ex, ok := e.Inner.(*sqlparser.ExistsExpr); ok {
			return a.rewriteExists(q, ex.Subquery, !ex.Not, nil, reqs)
		}
	case *sqlparser.InExpr:
		if e.Subquery != nil {
			return a.rewriteExists(q, e.Subquery, e.Not, e.Expr, reqs)
		}
	}
	// Resolve references; determine which leaves the conjunct touches.
	resolved, leaves, err := a.resolveExpr(conj)
	if err != nil {
		return err
	}
	switch len(leaves) {
	case 0:
		q.Residual = append(q.Residual, resolved)
	case 1:
		leaf := q.Leaf(leaves[0])
		leaf.Preds = append(leaf.Preds, resolved)
	case 2:
		if l, r, lc, rc, ok := a.equiJoinCols(resolved); ok {
			q.Joins = append(q.Joins, JoinPred{LeftLeaf: l, RightLeaf: r, LeftCol: lc, RightCol: rc, Expr: resolved})
			return nil
		}
		q.Residual = append(q.Residual, resolved)
	default:
		q.Residual = append(q.Residual, resolved)
	}
	return nil
}

// equiJoinCols recognizes "A.x = B.y" between two distinct leaves.
func (a *algebrizer) equiJoinCols(e sqlparser.Expr) (l, r cc.InstanceID, lc, rc string, ok bool) {
	be, isBin := e.(*sqlparser.BinaryExpr)
	if !isBin || be.Op != sqlparser.OpEQ {
		return 0, 0, "", "", false
	}
	lref, okL := be.Left.(*sqlparser.ColumnRef)
	rref, okR := be.Right.(*sqlparser.ColumnRef)
	if !okL || !okR || lref.Table == rref.Table {
		return 0, 0, "", "", false
	}
	return a.bindings[lref.Table], a.bindings[rref.Table], lref.Column, rref.Column, true
}

// rewriteExists turns a single-table EXISTS/IN subquery into a semi or anti
// join leaf (the paper's Q3 pattern). inExpr, when non-nil, is the left side
// of an IN and joins with the subquery's single output column.
func (a *algebrizer) rewriteExists(q *Query, sub *sqlparser.SelectStmt, anti bool, inExpr sqlparser.Expr, reqs *[]cc.Requirement) error {
	if len(sub.From) != 1 {
		return fmt.Errorf("opt: EXISTS/IN subquery must reference exactly one table")
	}
	tn, ok := sub.From[0].(*sqlparser.TableName)
	if !ok {
		return fmt.Errorf("opt: EXISTS/IN subquery FROM must be a base table")
	}
	if len(sub.GroupBy) > 0 || sub.Having != nil || sub.Top > 0 {
		return fmt.Errorf("opt: EXISTS/IN subquery must be a simple block")
	}
	tbl := a.cat.Table(tn.Name)
	if tbl == nil {
		return fmt.Errorf("opt: unknown table %s", tn.Name)
	}
	kind := exec.JoinSemi
	if anti {
		kind = exec.JoinAnti
	}
	leaf, err := a.newLeaf(q, tbl, tn.Binding(), kind)
	if err != nil {
		return err
	}
	if sub.Where != nil {
		if err := a.addPredicate(q, sub.Where, reqs); err != nil {
			return err
		}
	}
	if inExpr != nil {
		if len(sub.Items) != 1 || sub.Items[0].Star {
			return fmt.Errorf("opt: IN subquery must select exactly one column")
		}
		subCol, ok := sub.Items[0].Expr.(*sqlparser.ColumnRef)
		if !ok {
			return fmt.Errorf("opt: IN subquery must select a plain column")
		}
		eq := &sqlparser.BinaryExpr{Op: sqlparser.OpEQ, Left: inExpr, Right: subCol}
		if err := a.classify(q, eq, reqs); err != nil {
			return err
		}
	}
	if sub.Currency != nil {
		q.HasCurrencyClause = true
		if err := a.resolveCurrency(sub.Currency, reqs); err != nil {
			return err
		}
	}
	_ = leaf
	return nil
}

// resolveCurrency maps a currency clause's table names to instance ids. The
// clause follows WHERE-style scoping: it may reference tables from the
// current or outer blocks, all of which are in a.bindings by the time the
// clause is resolved.
func (a *algebrizer) resolveCurrency(clause *sqlparser.CurrencyClause, reqs *[]cc.Requirement) error {
	for _, triple := range clause.Triples {
		r := cc.Requirement{Bound: triple.Bound}
		for _, name := range triple.Tables {
			if id, ok := a.bindings[name]; ok {
				r.Set = append(r.Set, id)
				continue
			}
			// A flattened derived table's alias expands to all its
			// underlying base-table instances — the paper's view expansion
			// step in constraint normalization (Section 3.2.1).
			expanded := false
			for _, am := range a.aliasMaps {
				if am.alias == name {
					for _, l := range am.leaves {
						r.Set = append(r.Set, l.ID)
					}
					expanded = true
					break
				}
			}
			if !expanded {
				return fmt.Errorf("opt: currency clause references unknown table %s", name)
			}
		}
		for _, by := range triple.By {
			ref, err := a.resolveRefIn(a.cols.Cols, &by)
			if err != nil {
				return fmt.Errorf("opt: currency clause BY column: %w", err)
			}
			r.By = append(r.By, ref.SQL())
		}
		*reqs = append(*reqs, r)
	}
	return nil
}

// resolveExpr rewrites column references in e to fully qualified form and
// returns the distinct leaves it touches.
func (a *algebrizer) resolveExpr(e sqlparser.Expr) (sqlparser.Expr, []cc.InstanceID, error) {
	touched := map[cc.InstanceID]bool{}
	out, err := a.rewriteExpr(e, touched)
	if err != nil {
		return nil, nil, err
	}
	var ids []cc.InstanceID
	for id := range touched {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return out, ids, nil
}

func (a *algebrizer) rewriteExpr(e sqlparser.Expr, touched map[cc.InstanceID]bool) (sqlparser.Expr, error) {
	return rewrite(e, func(x sqlparser.Expr) (sqlparser.Expr, bool, error) {
		switch x := x.(type) {
		case *sqlparser.ColumnRef:
			ref, err := a.resolveRefIn(a.cols.Cols, x)
			if err == nil {
				touched[a.bindings[ref.Table]] = true
			}
			return ref, true, err
		case *sqlparser.InExpr:
			if x.Subquery != nil {
				return nil, true, fmt.Errorf("opt: nested IN subquery not supported here")
			}
		case *sqlparser.ExistsExpr:
			return nil, true, fmt.Errorf("opt: EXISTS is only supported as a top-level WHERE conjunct")
		}
		return nil, false, nil
	})
}

// rewrite returns a copy of e in which f replaced what it takes: f sees each
// node, outermost first, and returns its replacement and true, or false to
// have the node copied over its rewritten operands. A node without operands
// that f does not take is kept.
func rewrite(e sqlparser.Expr, f func(sqlparser.Expr) (sqlparser.Expr, bool, error)) (sqlparser.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if out, took, err := f(e); took || err != nil {
		return out, err
	}
	var err error
	sub := func(x sqlparser.Expr) sqlparser.Expr {
		if err != nil {
			return nil
		}
		x, err = rewrite(x, f)
		return x
	}
	var out sqlparser.Expr
	switch e := e.(type) {
	case *sqlparser.BinaryExpr:
		out = &sqlparser.BinaryExpr{Op: e.Op, Left: sub(e.Left), Right: sub(e.Right)}
	case *sqlparser.NotExpr:
		out = &sqlparser.NotExpr{Inner: sub(e.Inner)}
	case *sqlparser.NegExpr:
		out = &sqlparser.NegExpr{Inner: sub(e.Inner)}
	case *sqlparser.BetweenExpr:
		out = &sqlparser.BetweenExpr{Expr: sub(e.Expr), Lo: sub(e.Lo), Hi: sub(e.Hi), Not: e.Not}
	case *sqlparser.IsNullExpr:
		out = &sqlparser.IsNullExpr{Expr: sub(e.Expr), Not: e.Not}
	case *sqlparser.InExpr:
		in := &sqlparser.InExpr{Expr: sub(e.Expr), Not: e.Not, Subquery: e.Subquery}
		for _, item := range e.List {
			in.List = append(in.List, sub(item))
		}
		out = in
	case *sqlparser.FuncExpr:
		fn := &sqlparser.FuncExpr{Name: e.Name, Star: e.Star}
		for _, arg := range e.Args {
			fn.Args = append(fn.Args, sub(arg))
		}
		out = fn
	default:
		return e, nil
	}
	return out, err
}

// resolveRefIn resolves a (possibly unqualified, possibly derived-alias)
// column reference against the given leaf columns (exec.Schema.Resolve),
// consulting derived-table alias maps first.
func (a *algebrizer) resolveRefIn(cols []exec.Col, ref *sqlparser.ColumnRef) (*sqlparser.ColumnRef, error) {
	for _, am := range a.aliasMaps {
		if ref.Table != "" && am.alias == ref.Table {
			mapped, ok := am.cols[strings.ToLower(ref.Column)]
			if !ok {
				return nil, fmt.Errorf("opt: derived table %s has no column %s", ref.Table, ref.Column)
			}
			return mapped, nil
		}
	}
	s := exec.Schema{Cols: cols}
	i, err := s.Resolve(ref.Table, ref.Column)
	if err != nil {
		return nil, err
	}
	return &sqlparser.ColumnRef{Table: cols[i].Binding, Column: cols[i].Name}, nil
}

// bind gives every expression of q its kind (exec.Bind) before any access
// path is chosen, so that a statement fails, or not, whatever its plan: the
// one-leaf conjuncts an index seek or a view match would absorb, the join
// edges that become key ordinals, the residuals, the grouping keys and the
// aggregate arguments against the leaves' columns, then HAVING, ORDER BY and
// the select items against those and the aggregates' outputs. It fixes each
// aggregate's kind and the result schema, q.Out.
func (a *algebrizer) bind(q *Query) error {
	for _, l := range q.Leaves {
		if err := a.bindAll(l.Preds); err != nil {
			return err
		}
	}
	for _, j := range q.Joins {
		if _, err := exec.Bind(j.Expr, &a.cols); err != nil {
			return err
		}
	}
	if err := a.bindAll(q.Residual); err != nil {
		return err
	}
	if err := a.bindAll(q.GroupBy); err != nil {
		return err
	}
	for i := range q.Aggs {
		ag, arg, err := &q.Aggs[i], sqltypes.KindNull, error(nil)
		if ag.Arg != nil {
			arg, err = exec.Bind(ag.Arg, &a.cols)
		}
		if err == nil {
			ag.Kind, err = exec.AggKind(ag.Func, arg)
		}
		if err != nil {
			return err
		}
		a.cols.Cols = append(a.cols.Cols, exec.Col{Binding: aggBinding, Name: ag.Ref.Column, Kind: ag.Kind})
	}
	if q.Having != nil {
		if _, err := exec.Bind(q.Having, &a.cols); err != nil {
			return err
		}
	}
	for _, o := range q.OrderBy {
		if _, err := exec.Bind(o.Expr, &a.cols); err != nil {
			return err
		}
	}
	out := make([]exec.Col, len(q.Items))
	for i, item := range q.Items {
		kind, err := exec.Bind(item.Expr, &a.cols)
		if err != nil {
			return err
		}
		name := item.Alias
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && name == "" {
			name = ref.Column
		}
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		out[i] = exec.Col{Name: name, Kind: kind}
	}
	q.Out = exec.NewSchema(out...)
	return nil
}

func (a *algebrizer) bindAll(es []sqlparser.Expr) error {
	for _, e := range es {
		if _, err := exec.Bind(e, &a.cols); err != nil {
			return err
		}
	}
	return nil
}

// finishing resolves the projection, grouping, having and ordering parts,
// extracting aggregate computations.
func (a *algebrizer) finishing(q *Query, sel *sqlparser.SelectStmt) error {
	q.Top = sel.Top
	q.Distinct = sel.Distinct
	// Expand stars.
	for _, item := range sel.Items {
		if !item.Star {
			resolved, _, err := a.resolveExpr(item.Expr)
			if err != nil {
				return err
			}
			q.Items = append(q.Items, sqlparser.SelectItem{Expr: resolved, Alias: item.Alias})
			continue
		}
		for _, l := range q.Leaves {
			if item.StarTable != "" && item.StarTable != l.Binding {
				continue
			}
			if l.Join != exec.JoinInner {
				continue // semi-join leaves do not contribute output columns
			}
			for _, c := range l.Table.Columns {
				q.Items = append(q.Items, sqlparser.SelectItem{
					Expr: &sqlparser.ColumnRef{Table: l.Binding, Column: c.Name},
				})
			}
		}
	}
	for _, g := range sel.GroupBy {
		resolved, _, err := a.resolveExpr(g)
		if err != nil {
			return err
		}
		q.GroupBy = append(q.GroupBy, resolved)
	}
	// Extract aggregates from items, HAVING and ORDER BY.
	for i := range q.Items {
		expr, err := a.extractAggs(q, q.Items[i].Expr)
		if err != nil {
			return err
		}
		q.Items[i].Expr = expr
	}
	if sel.Having != nil {
		resolved, _, err := a.resolveExpr(sel.Having)
		if err != nil {
			return err
		}
		resolved, err = a.extractAggs(q, resolved)
		if err != nil {
			return err
		}
		q.Having = resolved
	}
	for _, o := range sel.OrderBy {
		resolved, err := a.resolveOrderItem(q, o)
		if err != nil {
			return err
		}
		q.OrderBy = append(q.OrderBy, resolved)
	}
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		// Grouped query: every non-aggregate output expression must be a
		// grouping expression (checked loosely: plain column refs only).
		for _, item := range q.Items {
			if err := checkGrouped(item.Expr, q); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolveOrderItem allows ORDER BY to reference projection aliases.
func (a *algebrizer) resolveOrderItem(q *Query, o sqlparser.OrderItem) (sqlparser.OrderItem, error) {
	if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
		for _, item := range q.Items {
			if item.Alias != "" && strings.EqualFold(item.Alias, ref.Column) {
				return sqlparser.OrderItem{Expr: item.Expr, Desc: o.Desc}, nil
			}
		}
	}
	resolved, _, err := a.resolveExpr(o.Expr)
	if err != nil {
		return sqlparser.OrderItem{}, err
	}
	resolved, err = a.extractAggs(q, resolved)
	if err != nil {
		return sqlparser.OrderItem{}, err
	}
	return sqlparser.OrderItem{Expr: resolved, Desc: o.Desc}, nil
}

// extractAggs replaces aggregate calls with references to aggregate output
// columns, registering each distinct aggregate in q.Aggs.
func (a *algebrizer) extractAggs(q *Query, e sqlparser.Expr) (sqlparser.Expr, error) {
	return rewrite(e, func(x sqlparser.Expr) (sqlparser.Expr, bool, error) {
		if f, ok := x.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
			ref, err := a.aggRef(q, f)
			return ref, true, err
		}
		return nil, false, nil
	})
}

// aggRef is the reference standing for aggregate call e in q.Aggs.
func (a *algebrizer) aggRef(q *Query, e *sqlparser.FuncExpr) (*sqlparser.ColumnRef, error) {
	var arg sqlparser.Expr
	if !e.Star {
		if len(e.Args) != 1 {
			return nil, fmt.Errorf("opt: aggregate %s needs one argument", e.Name)
		}
		arg = e.Args[0]
	}
	// Reuse an existing identical aggregate. The comparison reads every
	// literal inside the call.
	walkExpr(e, func(x sqlparser.Expr) {
		if lit, ok := x.(*sqlparser.Literal); ok {
			a.pins.pin(lit.Slot)
		}
	})
	sig := e.SQL()
	for i := range q.Aggs {
		existing := &sqlparser.FuncExpr{Name: q.Aggs[i].Func, Star: q.Aggs[i].Star}
		if q.Aggs[i].Arg != nil {
			existing.Args = []sqlparser.Expr{q.Aggs[i].Arg}
		}
		if existing.SQL() == sig {
			return q.Aggs[i].Ref, nil
		}
	}
	ref := &sqlparser.ColumnRef{Table: aggBinding, Column: fmt.Sprintf("agg%d", len(q.Aggs))}
	q.Aggs = append(q.Aggs, AggItem{Func: e.Name, Arg: arg, Star: e.Star, Ref: ref})
	return ref, nil
}

// aggBinding is the pseudo-binding aggregate outputs live under.
const aggBinding = "#agg"

func checkGrouped(e sqlparser.Expr, q *Query) error {
	switch e := e.(type) {
	case nil, *sqlparser.Literal:
		return nil
	case *sqlparser.ColumnRef:
		if e.Table == aggBinding {
			return nil
		}
		for _, g := range q.GroupBy {
			if gr, ok := g.(*sqlparser.ColumnRef); ok && gr.Table == e.Table && gr.Column == e.Column {
				return nil
			}
		}
		return fmt.Errorf("opt: column %s must appear in GROUP BY or an aggregate", e.SQL())
	case *sqlparser.BinaryExpr:
		if err := checkGrouped(e.Left, q); err != nil {
			return err
		}
		return checkGrouped(e.Right, q)
	case *sqlparser.NegExpr:
		return checkGrouped(e.Inner, q)
	default:
		return nil
	}
}

// collectNeededColumns records, per leaf, which columns the query touches.
func (a *algebrizer) collectNeededColumns(q *Query) {
	needed := map[string]map[string]bool{} // binding -> column set
	add := func(ref *sqlparser.ColumnRef) {
		if ref.Table == aggBinding {
			return
		}
		if needed[ref.Table] == nil {
			needed[ref.Table] = map[string]bool{}
		}
		needed[ref.Table][ref.Column] = true
	}
	walk := func(e sqlparser.Expr) {
		walkExpr(e, func(x sqlparser.Expr) {
			if ref, ok := x.(*sqlparser.ColumnRef); ok {
				add(ref)
			}
		})
	}
	for _, item := range q.Items {
		walk(item.Expr)
	}
	for _, ag := range q.Aggs {
		if ag.Arg != nil {
			walk(ag.Arg)
		}
	}
	for _, g := range q.GroupBy {
		walk(g)
	}
	walk(q.Having)
	for _, o := range q.OrderBy {
		walk(o.Expr)
	}
	for _, j := range q.Joins {
		walk(j.Expr)
	}
	for _, r := range q.Residual {
		walk(r)
	}
	for _, l := range q.Leaves {
		for _, p := range l.Preds {
			walk(p)
		}
	}
	for _, l := range q.Leaves {
		cols := needed[l.Binding]
		// Always include the primary key so index lookups and view matching
		// have a stable anchor.
		for _, pk := range l.Table.PrimaryKey {
			if cols == nil {
				cols = map[string]bool{}
				needed[l.Binding] = cols
			}
			cols[pk] = true
		}
		for _, c := range l.Table.Columns {
			if cols[c.Name] {
				l.Cols = append(l.Cols, c.Name)
			}
		}
	}
}

// walkExpr calls visit on e and every expression under it (subqueries
// excepted: the algebrizer has turned them into leaves by now).
func walkExpr(e sqlparser.Expr, visit func(sqlparser.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch e := e.(type) {
	case *sqlparser.BinaryExpr:
		walkExpr(e.Left, visit)
		walkExpr(e.Right, visit)
	case *sqlparser.NotExpr:
		walkExpr(e.Inner, visit)
	case *sqlparser.NegExpr:
		walkExpr(e.Inner, visit)
	case *sqlparser.BetweenExpr:
		walkExpr(e.Expr, visit)
		walkExpr(e.Lo, visit)
		walkExpr(e.Hi, visit)
	case *sqlparser.InExpr:
		walkExpr(e.Expr, visit)
		for _, item := range e.List {
			walkExpr(item, visit)
		}
	case *sqlparser.IsNullExpr:
		walkExpr(e.Expr, visit)
	case *sqlparser.FuncExpr:
		for _, arg := range e.Args {
			walkExpr(arg, visit)
		}
	}
}
