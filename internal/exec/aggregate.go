package exec

import (
	"fmt"

	"relaxedcc/internal/sqltypes"
)

// This file implements grouping: the vectorized hash aggregate, and DISTINCT
// as a group-by with no aggregates.
//
//   - Group keys are child columns, named by ordinal. They are normalized
//     batch-at-a-time into joinKeys columns (the hash join's class+bits
//     form; NULL is one more class, so NULLs group together, and -0 groups
//     with +0) and looked up in an open-addressed table of dense group ids.
//   - Accumulators are typed cells indexed by group id, fed column-at-a-time
//     from the child batch's vector when the argument is a column and from a
//     scratch vector the expression fills at the active rows otherwise.
//   - Over a ParallelScan child the aggregate runs inside the scan's workers,
//     one partial per morsel, merged in morsel order: it folds each leaf
//     window where it lies, no row is copied or crosses the exchange, and a
//     float SUM adds up in the same order on every run.

// groupTable assigns dense ids to distinct normalized key rows, in
// first-seen order.
type groupTable struct {
	keys   *joinKeys // one row per group
	hashes []uint64  // per group
	slots  []int32   // open addressing, linear probing: group id or -1
	mask   uint64
}

// reset empties the table for keys of ncols columns, keeping capacity.
func (g *groupTable) reset(ncols int) {
	if g.keys == nil {
		g.keys, g.slots = newJoinKeys(ncols), make([]int32, 64)
	}
	g.keys.reset()
	g.hashes = g.hashes[:0]
	g.rehash(len(g.slots))
}

// rehash gives the table size empty slots and re-enters every group.
func (g *groupTable) rehash(size int) {
	if size > len(g.slots) {
		g.slots = make([]int32, size)
	}
	g.mask = uint64(size - 1)
	for i := range g.slots {
		g.slots[i] = -1
	}
	for id, h := range g.hashes {
		i := h & g.mask
		for g.slots[i] >= 0 {
			i = (i + 1) & g.mask
		}
		g.slots[i] = int32(id)
	}
}

// find returns the id of the group whose key is row r of k (hashed to h),
// adding the group when the key is new.
func (g *groupTable) find(k *joinKeys, r int, h uint64) (id int32, added bool) {
	if 2*len(g.hashes) >= len(g.slots) { // load factor <= 0.5
		g.rehash(2 * len(g.slots))
	}
	i := h & g.mask
	for ; g.slots[i] >= 0; i = (i + 1) & g.mask {
		if id := g.slots[i]; g.hashes[id] == h && keysEqual(g.keys, int(id), k, r) {
			return id, false
		}
	}
	id = int32(len(g.hashes))
	g.slots[i] = id
	g.hashes = append(g.hashes, h)
	g.keys.appendFrom(k, r)
	return id, true
}

// ---- Aggregate ----

// AggSpec describes one aggregate computation.
type AggSpec struct {
	Func string // COUNT, SUM, AVG, MIN, MAX
	Arg  Expr   // unused for COUNT(*)
	Star bool
}

// Aggregate is a hash group-by: output rows are group-key values followed by
// aggregate results, groups in first-seen order. With no group keys it
// produces exactly one row.
type Aggregate struct {
	Child Operator
	// GroupCols are the child-column ordinals of the group keys.
	GroupCols []int
	Aggs      []AggSpec
	Out       *Schema

	// One partial per morsel of a ParallelScan child (else one) and one
	// scratch per scan worker, keeping capacity across runs of a reused tree.
	parts   []aggState
	scratch []aggScratch
	res     sqltypes.Lanes
	win     window
}

// aggState is one partial aggregation: the groups seen so far and one
// accumulator cell per group and aggregate (cells[g*len(Aggs)+i]).
type aggState struct {
	groups groupTable
	first  []sqltypes.Value // len(GroupCols) per group: the key as first seen
	cells  []aggCell
}

// aggCell accumulates one aggregate over one group: cnt the non-NULL inputs
// (rows, for COUNT(*)); a SUM or AVG in isum while every input was an INT
// and the sum fits int64, in fsum from the first FLOAT input or overflow on
// (flt says which); ext the MIN or MAX so far.
type aggCell struct {
	cnt, isum int64
	fsum      float64
	flt       bool
	ext       sqltypes.Value
}

// aggScratch is what one worker needs to take a batch apart.
type aggScratch struct {
	keys *joinKeys
	hash []uint64
	gids []int32
	vals sqltypes.ColBatch // a computed argument's vector
}

// Schema implements Operator.
func (a *Aggregate) Schema() *Schema { return a.Out }

// Open implements Operator: it drains the child — per morsel and inside the
// scan's workers when the child is a ParallelScan — and computes all groups.
func (a *Aggregate) Open(ctx *EvalContext) error {
	a.win.reset(nil, nil, ctx)
	var err error
	if ps, ok := a.Child.(*ParallelScan); ok {
		ps.prepare(ctx)
		a.reset(len(ps.morsels), ps.effDOP)
		err = ps.scanMorsels(a)
	} else if err = a.Child.Open(ctx); err == nil {
		a.reset(1, 1)
		err = eachBatch(a.Child, func(cb *sqltypes.ColBatch) error { return a.parts[0].consume(a, &a.scratch[0], ctx, cb) })
	}
	if err != nil {
		return err
	}
	total := &a.parts[0]
	for m := 1; m < len(a.parts); m++ {
		total.merge(a, &a.parts[m])
	}
	total.result(a, &a.res)
	a.win.reset(nil, &a.res, ctx)
	return nil
}

// visit folds a leaf window of the morsel worker w's walk c is in, narrowed
// by the scan's residual, into that morsel's partial (storage.Table.Step).
func (a *Aggregate) visit(c *chunkWalk, w int, view *sqltypes.ColBatch) (int, error) {
	ok, err := c.narrow(view)
	if ok {
		err = a.parts[c.m].consume(a, &a.scratch[w], c.ctx, view)
	}
	return view.Len(), err
}

// reset sizes and empties the partials and the per-worker scratch.
func (a *Aggregate) reset(parts, workers int) {
	for a.parts = a.parts[:cap(a.parts)]; len(a.parts) < parts; {
		a.parts = append(a.parts, aggState{})
	}
	a.parts = a.parts[:parts]
	for i := range a.parts {
		st := &a.parts[i]
		st.first, st.cells = st.first[:0], st.cells[:0]
		st.groups.reset(len(a.GroupCols))
	}
	for len(a.scratch) < workers {
		a.scratch = append(a.scratch, aggScratch{keys: newJoinKeys(len(a.GroupCols))})
	}
}

// consume folds one child batch into the partial.
func (st *aggState) consume(a *Aggregate, sc *aggScratch, ctx *EvalContext, cb *sqltypes.ColBatch) error {
	n, na := cb.NumActive(), len(a.Aggs)
	sc.vals.ResetCols(1, cb.Len())
	sc.keys.reset()
	gids := sc.gids[:0]
	if len(a.GroupCols) == 0 {
		// No GROUP BY: every row belongs to the one group of the empty key.
		st.groups.find(sc.keys, 0, 0)
		for range n {
			gids = append(gids, 0)
		}
	} else {
		sc.keys.appendBatch(a.GroupCols, cb)
		sc.hash = sc.keys.hashes(sc.hash[:0], n)
		for r, h := range sc.hash {
			id, added := st.groups.find(sc.keys, r, h)
			if added {
				for _, ord := range a.GroupCols {
					st.first = append(st.first, cb.Col(ord).Value(at(cb.Sel, r)))
				}
			}
			gids = append(gids, id)
		}
	}
	sc.gids = gids
	st.grow(na)
	for i := range a.Aggs {
		spec, cells := &a.Aggs[i], st.cells[i:]
		if spec.Star {
			for _, g := range gids {
				cells[int(g)*na].cnt++
			}
			continue
		}
		v, err := spec.Arg.vec(ctx, cb, &sc.vals, 0)
		if err != nil {
			return err
		}
		sum := spec.Func == "SUM" || spec.Func == "AVG"
		for k, g := range gids {
			c, i := &cells[int(g)*na], at(cb.Sel, k)
			switch {
			case v.IsNull(i):
				continue
			case sum && v.Kind == sqltypes.KindInt:
				c.addInt(v.I64[i])
			case sum && v.Kind == sqltypes.KindFloat:
				c.addFloat(v.F64[i])
			default: // MIN, MAX, COUNT, and columns of mixed kinds
				switch val := v.Value(i); {
				case val.IsNull():
					continue
				case !sum:
					if c.cnt == 0 || (spec.Func == "MIN" && val.Compare(c.ext) < 0) || (spec.Func == "MAX" && val.Compare(c.ext) > 0) {
						c.ext = val
					}
				case val.Kind() == sqltypes.KindInt:
					c.addInt(val.Int())
				case val.Kind() == sqltypes.KindFloat:
					c.addFloat(val.Float())
				default:
					return fmt.Errorf("exec: %s of %s", spec.Func, val.Kind())
				}
			}
			c.cnt++
		}
	}
	return nil
}

// grow extends the cells to the table's groups, na cells each.
func (st *aggState) grow(na int) {
	for len(st.cells) < len(st.groups.hashes)*na {
		st.cells = append(st.cells, aggCell{})
	}
}

// addInt adds x to the sum (the caller counts it). A sum that would wrap
// int64 is promoted to FLOAT as a FLOAT input promotes it; the reference
// evaluator follows the same rule.
func (c *aggCell) addInt(x int64) {
	switch s := c.isum + x; {
	case c.flt:
		c.fsum += float64(x)
	case (s > c.isum) == (x > 0):
		c.isum = s
	default:
		c.fsum, c.flt = float64(c.isum)+float64(x), true
	}
}

func (c *aggCell) addFloat(x float64) {
	switch {
	case c.flt:
		c.fsum += x
	case c.cnt == 0:
		c.fsum, c.flt = x, true
	default:
		c.fsum, c.flt = float64(c.isum)+x, true
	}
}

// merge folds src's groups into st, in src's group order: partials merged
// in morsel order list groups, and add up sums, in scan order.
func (st *aggState) merge(a *Aggregate, src *aggState) {
	nk, na := len(a.GroupCols), len(a.Aggs)
	for g, h := range src.groups.hashes {
		to, added := st.groups.find(src.groups.keys, g, h)
		if added {
			st.first = append(st.first, src.first[g*nk:(g+1)*nk]...)
			st.grow(na)
		}
		for i := range a.Aggs {
			c, from, fn := &st.cells[int(to)*na+i], &src.cells[g*na+i], a.Aggs[i].Func
			switch {
			case from.cnt == 0:
				continue
			case c.cnt == 0:
				*c = *from
				continue
			case fn == "MIN" && from.ext.Compare(c.ext) < 0, fn == "MAX" && from.ext.Compare(c.ext) > 0:
				c.ext = from.ext
			case from.flt:
				c.addFloat(from.fsum)
			case fn == "SUM" || fn == "AVG":
				c.addInt(from.isum)
			}
			c.cnt += from.cnt
		}
	}
}

// result writes the groups into out, one row each, a column at a time: the
// keys as first seen, then each aggregate's value.
func (st *aggState) result(a *Aggregate, out *sqltypes.Lanes) {
	nk, na := len(a.GroupCols), len(a.Aggs)
	if nk == 0 { // even over no input: one row, COUNT 0 and the others NULL
		st.groups.find(st.groups.keys, 0, 0)
		st.grow(na)
	}
	out.Fill(nk+na, len(st.groups.hashes), func(g, c int) sqltypes.Value {
		if c < nk {
			return st.first[g*nk+c]
		}
		return st.cells[g*na+c-nk].value(a.Aggs[c-nk].Func)
	})
}

// value is the cell's aggregate result.
func (c *aggCell) value(fn string) sqltypes.Value {
	total := c.fsum
	if !c.flt {
		total = float64(c.isum)
	}
	switch {
	case fn == "COUNT":
		return sqltypes.NewInt(c.cnt)
	case c.cnt == 0:
		return sqltypes.Null
	case fn == "AVG":
		return sqltypes.NewFloat(total / float64(c.cnt))
	case fn == "SUM" && !c.flt:
		return sqltypes.NewInt(c.isum)
	case fn == "SUM":
		return sqltypes.NewFloat(total)
	default: // MIN, MAX
		return c.ext
	}
}

// NextVec implements Operator: views of the computed groups.
func (a *Aggregate) NextVec() (*sqltypes.ColBatch, bool, error) { return a.win.next(len(a.Out.Cols)) }

// Close implements Operator.
func (a *Aggregate) Close() error { a.win.reset(nil, nil, nil); return a.Child.Close() }

// ---- Distinct ----

// Distinct removes duplicate rows: a group-by over every column with no
// aggregates, whose keys as first seen are the distinct rows in order.
type Distinct struct {
	Child Operator
	agg   Aggregate
}

// Schema implements Operator.
func (d *Distinct) Schema() *Schema { return d.Child.Schema() }

// Open implements Operator. The group keys are a slice of the Distinct's
// own, grown on the first Open.
func (d *Distinct) Open(ctx *EvalContext) error {
	d.agg.Child, d.agg.Out = d.Child, d.Child.Schema()
	for c := len(d.agg.GroupCols); c < len(d.agg.Out.Cols); c++ {
		d.agg.GroupCols = append(d.agg.GroupCols, c)
	}
	return d.agg.Open(ctx)
}

// NextVec implements Operator.
func (d *Distinct) NextVec() (*sqltypes.ColBatch, bool, error) { return d.agg.NextVec() }

// Close implements Operator.
func (d *Distinct) Close() error { return d.agg.Close() }
