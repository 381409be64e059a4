package exec

import (
	"slices"

	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// Operator is a physical operator in the open/next/close iterator model.
// Rows move between operators only as columnar batches.
type Operator interface {
	// Schema describes the operator's output columns.
	Schema() *Schema
	// Open prepares the operator for iteration.
	Open(ctx *EvalContext) error
	// NextVec returns the next batch, or ok=false at end of stream. A
	// returned batch has NumActive() > 0 — batches whose selection filtered
	// every row are skipped inside the operator — and follows the ownership
	// contract on sqltypes.ColBatch: read-only for the consumer, except that
	// a consumer may narrow Sel before forwarding the same container, and
	// valid only until the consumer's next NextVec/Close call on this
	// operator. Rows reachable through a row-backed batch (a Values list or
	// a Remote reply) are shared and immutable and may be retained.
	NextVec() (*sqltypes.ColBatch, bool, error)
	// Close releases resources. It must be safe to call after errors and
	// more than once.
	Close() error
}

// ---- Values ----

// Values produces a fixed list of rows (used for SELECT without FROM and in
// tests).
type Values struct {
	Rows   []sqltypes.Row
	schema *Schema
	win    window
}

// NewValues builds a Values operator.
func NewValues(schema *Schema, rows []sqltypes.Row) *Values {
	return &Values{Rows: rows, schema: schema}
}

// Schema implements Operator.
func (v *Values) Schema() *Schema { return v.schema }

// Open implements Operator.
func (v *Values) Open(ctx *EvalContext) error { v.win.reset(v.Rows, nil, ctx); return nil }

// NextVec implements Operator: zero-copy windows of the row list.
func (v *Values) NextVec() (*sqltypes.ColBatch, bool, error) {
	return v.win.next(len(v.schema.Cols))
}

// Close implements Operator.
func (v *Values) Close() error { return nil }

// ---- Scan ----

// Scan reads a stored table (base table or materialized view) through one
// of its indexes, optionally within a key range and with a pushed-down
// residual predicate.
//
// A clustered scan — the table (Index == "") or a range of its clustered
// index — streams straight off the B+-tree leaves (chunkWalk): the residual
// predicate narrows each leaf window where it lies, under a short read latch,
// and only the survivors' columns are copied out, so the scan never
// materializes the table and interleaves with writers at step granularity —
// the read-committed view parallel workers get. A secondary-index scan
// copies its range into a snapshot at Open and emits windows of it.
type Scan struct {
	Table  *storage.Table
	Index  string // index to drive the scan; "" = clustered order
	Lo, Hi storage.Bound
	// LoParam and HiParam, when positive, are the slots of the literals Lo's
	// and Hi's single value came from: an execution with parameters reads the
	// bound from there.
	LoParam, HiParam int
	Filter           *Pred // residual predicate, may be nil

	schema *Schema
	ctx    *EvalContext
	// walk streams a clustered scan and narrows a secondary one's snapshot
	// windows (snap from pos on, emitted through view).
	walk      chunkWalk
	clustered bool
	snap      sqltypes.Lanes
	view      sqltypes.ColBatch
	pos       int
	lov, hiv  [1]sqltypes.Value
	// only, set before Open, are the stored columns the next run's consumer
	// reads — the outputs of a gather Project right above, or none for
	// Exists — and the only ones copied out.
	only []Expr

	// RowsScanned counts rows read from storage (before the residual
	// filter); used by tests and cost-model validation.
	RowsScanned int
}

// NewScan builds a scan. The schema's column order must match the stored
// row layout.
func NewScan(table *storage.Table, schema *Schema) *Scan {
	return &Scan{Table: table, schema: schema}
}

// Schema implements Operator.
func (s *Scan) Schema() *Schema { return s.schema }

// Open implements Operator. A clustered scan arms its cursor and reads
// nothing yet; a secondary-index scan copies its range under the table's
// read latch.
func (s *Scan) Open(ctx *EvalContext) error {
	s.ctx = ctx
	s.pos, s.RowsScanned = 0, 0
	s.walk.arm(s.Filter, ctx, len(s.schema.Cols))
	s.walk.only, s.only = s.only, nil
	lo, hi := s.Lo, s.Hi
	if ctx != nil && ctx.Params != nil {
		if s.LoParam > 0 {
			s.lov[0], lo.Vals = ctx.Params[s.LoParam-1], s.lov[:]
		}
		if s.HiParam > 0 {
			s.hiv[0], hi.Vals = ctx.Params[s.HiParam-1], s.hiv[:]
		}
	}
	if s.clustered = s.Index == "" || s.clustered || s.Table.Clustered(s.Index); s.clustered {
		s.walk.cur.Bounds(lo, hi)
		return nil
	}
	s.snap.Reset()
	return s.Table.ScanIndex(s.Index, lo, hi, &s.snap)
}

// NextVec implements Operator: the next batch of survivors of a clustered
// scan, or the next window of the snapshot narrowed by the pushed-down
// predicate.
func (s *Scan) NextVec() (*sqltypes.ColBatch, bool, error) {
	if s.clustered {
		cb, n, err := s.walk.next(s.Table)
		s.RowsScanned += n
		return cb, cb != nil, err
	}
	for n := batchSizeOf(s.ctx); s.pos < s.snap.Len(); {
		end := min(s.pos+n, s.snap.Len())
		s.view.ResetLanes(&s.snap, s.pos, end)
		s.RowsScanned += end - s.pos
		s.pos = end
		if ok, err := s.walk.narrow(&s.view); err != nil {
			return nil, false, err
		} else if ok {
			return &s.view, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// chunkWalk is one reader of a clustered key range: the cursor storage walks
// the leaves with, the residual predicate that narrows each leaf window where
// it lies, and the batch the survivors are copied into. out holds at most n
// rows and is the reader's own, so it outlives the latch. Scan, the inline
// ParallelScan and each of its workers own one.
type chunkWalk struct {
	cur    storage.Cursor
	pred   *Pred
	ctx    *EvalContext
	n      int
	width  int
	only   []Expr // the columns copied, nil for all
	selbuf []int32
	out    *sqltypes.ColBatch
	m      int // the morsel a ParallelScan worker walks
}

// arm prepares the walk for a run: the predicate, the context and the width
// of the batches it fills.
func (c *chunkWalk) arm(p *Pred, ctx *EvalContext, width int) {
	c.pred, c.ctx, c.n, c.width = p, ctx, batchSizeOf(ctx), width
	if c.out == nil {
		c.out = new(sqltypes.ColBatch)
	}
}

// narrow applies the residual predicate to cb's selection, reporting whether
// any row survives.
func (c *chunkWalk) narrow(cb *sqltypes.ColBatch) (bool, error) {
	return c.pred.Narrow(c.ctx, cb, &c.selbuf)
}

// take is the visit of a copying walk (storage.Table.Step): it narrows a
// leaf window and copies as many survivors into out as fit, dealing with
// the window's rows up to the first survivor that did not.
func (c *chunkWalk) take(view *sqltypes.ColBatch) (int, error) {
	if ok, err := c.narrow(view); err != nil || !ok {
		return view.Len(), err
	}
	k := min(view.NumActive(), c.n-c.out.Len())
	if c.out.Append(view, k, c.copies); k < view.NumActive() {
		return at(view.Sel, k), nil
	}
	return view.Len(), nil
}

// copies reports whether the walk copies out stored column j.
func (c *chunkWalk) copies(j int) bool {
	return c.only == nil || slices.ContainsFunc(c.only, func(e Expr) bool { return e.Col == j })
}

// next returns the next batch of at most n survivors (nil at the end of the
// range) and the number of rows read from storage on the way.
func (c *chunkWalk) next(t *storage.Table) (*sqltypes.ColBatch, int, error) {
	if c.cur.Done() {
		return nil, 0, nil
	}
	c.out.ResetCols(c.width, 0)
	scanned := 0
	for !c.cur.Done() && c.out.Len() < c.n {
		read, err := t.Step(&c.cur, c.n, c.take)
		if scanned += read; err != nil {
			return nil, scanned, err
		}
	}
	if c.out.Len() == 0 {
		return nil, scanned, nil
	}
	return c.out, scanned, nil
}

// ---- Filter ----

// Filter passes through rows satisfying a predicate: it refines the child
// batch's selection vector in place and forwards the same container — no
// rows move.
type Filter struct {
	Child Operator
	Pred  *Pred

	ctx    *EvalContext
	selbuf []int32
}

// Schema implements Operator.
func (f *Filter) Schema() *Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *EvalContext) error {
	f.ctx = ctx
	return f.Child.Open(ctx)
}

// NextVec implements Operator.
func (f *Filter) NextVec() (*sqltypes.ColBatch, bool, error) {
	for {
		cb, ok, err := f.Child.NextVec()
		if err != nil || !ok {
			return nil, false, err
		}
		if ok, err := f.Pred.Narrow(f.ctx, cb, &f.selbuf); err != nil {
			return nil, false, err
		} else if ok {
			return cb, true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// ---- Project ----

// Project computes output expressions over child batches, under the
// child's selection: a column output is the input's vector, a computed one is
// evaluated at the active rows into a vector the Project owns.
type Project struct {
	Child Operator
	Exprs []Expr
	Out   *Schema

	ctx *EvalContext
	// identity marks a projection that keeps every input column in place (it
	// only renames): child batches are forwarded untouched.
	identity bool
	out      sqltypes.ColBatch
}

// Schema implements Operator.
func (p *Project) Schema() *Schema { return p.Out }

// Columns reports whether every output is an input column.
func (p *Project) Columns() bool {
	for _, e := range p.Exprs {
		if e.Fn != nil {
			return false
		}
	}
	return true
}

// Open implements Operator.
func (p *Project) Open(ctx *EvalContext) error {
	p.ctx = ctx
	gather := p.Columns()
	p.identity = gather && len(p.Exprs) == len(p.Child.Schema().Cols)
	for j, e := range p.Exprs {
		p.identity = p.identity && e.Col == j
	}
	if gather && !p.identity {
		switch c := p.Child.(type) {
		case *Scan:
			c.only = p.Exprs
		case *ParallelScan:
			c.only = p.Exprs
		}
	}
	return p.Child.Open(ctx)
}

// NextVec implements Operator.
func (p *Project) NextVec() (*sqltypes.ColBatch, bool, error) {
	in, ok, err := p.Child.NextVec()
	if err != nil || !ok || p.identity {
		return in, ok, err
	}
	p.out.ResetCols(len(p.Exprs), in.Len())
	for j, e := range p.Exprs {
		v, err := e.vec(p.ctx, in, &p.out, j)
		if err != nil {
			return nil, false, err
		}
		p.out.SetCol(j, v)
	}
	p.out.Sel = in.Sel
	return &p.out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// ---- Joins ----

// JoinKind selects inner, semi (EXISTS) or anti (NOT EXISTS) join behavior.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinSemi
	JoinAnti
)

// IndexLoopJoin is an index nested-loop join: for each outer row it seeks
// the inner table's index on equality keys read from the outer row.
type IndexLoopJoin struct {
	Outer    Operator
	Inner    *storage.Table
	Index    string
	InnerSch *Schema // schema of inner rows (stored layout)
	// OuterKey is the ordinal of the outer column each leading index column
	// equals, in index order; trees of one plan share it read-only.
	OuterKey []int
	Residual Compiled // evaluated over concat(outer, inner)
	Kind     JoinKind

	schema *Schema
	out    rowPairs
	key    sqltypes.Row // reusable seek key
	// InnerLookups counts index seeks, for cost validation.
	InnerLookups int
}

// NewIndexLoopJoin builds an index nested-loop join.
func NewIndexLoopJoin(outer Operator, inner *storage.Table, index string, innerSch *Schema, outerKey []int, residual Compiled, kind JoinKind) *IndexLoopJoin {
	j := &IndexLoopJoin{Outer: outer, Inner: inner, Index: index, InnerSch: innerSch, OuterKey: outerKey, Residual: residual, Kind: kind}
	if kind == JoinInner {
		j.schema = Concat(outer.Schema(), innerSch)
	} else {
		j.schema = outer.Schema()
	}
	return j
}

// Schema implements Operator.
func (j *IndexLoopJoin) Schema() *Schema { return j.schema }

// Open implements Operator.
func (j *IndexLoopJoin) Open(ctx *EvalContext) error {
	j.InnerLookups = 0
	if j.out.find == nil {
		j.out.find = j.lookup
	}
	j.out.reset(ctx, j.Residual, j.Kind, len(j.Outer.Schema().Cols), len(j.schema.Cols))
	return j.Outer.Open(ctx)
}

// NextVec implements Operator: one index seek per outer row, the matches
// emitted as pairs (join.go).
func (j *IndexLoopJoin) NextVec() (*sqltypes.ColBatch, bool, error) {
	return j.out.next(&j.out, j.Outer)
}

// lookup seeks the inner index with the key of active outer row r, copying
// the matches into the emitter's right rows; a NULL key matches nothing. The
// key buffer is reused.
func (j *IndexLoopJoin) lookup(r int) error {
	j.InnerLookups++
	if j.key = j.out.leftKey(j.key[:0], r, j.OuterKey); keyHasNull(j.key) {
		return nil
	}
	b := storage.Bound{Vals: j.key, Inclusive: true}
	return j.Inner.ScanIndex(j.Index, b, b, &j.out.right)
}

// Close implements Operator.
func (j *IndexLoopJoin) Close() error { return j.Outer.Close() }

// ---- Sort / Limit ----

// Sort copies the child output it keeps into lanes and orders it: Open
// sorts entries over the kept rows, and NextVec gathers a window of them at
// a time in that order. The order is stable: rows with equal keys keep their
// input order.
type Sort struct {
	Child Operator
	Keys  []Expr
	Desc  []bool
	// TopN, when positive, bounds the output to its first TopN rows (the
	// planner sets it from TOP n): Open then keeps a heap of the best TopN
	// rows seen instead of copying and sorting the whole input.
	TopN int64

	// ents are the rows kept, each with its input position (the tie-break
	// that makes the order stable), its row in rows and the offset of its
	// evaluated keys in keys; in top-N mode ents is a heap with the worst
	// kept row at the root, and rows also hold the rows it displaced until
	// they outnumber the kept ones by a batch (then compact drops them).
	// NextVec gathers the entries' rows from pos on, n a batch, into spare.
	ents          []sortEnt
	keys          []sqltypes.Value
	rows, spare   sqltypes.Lanes
	kb, view, out sqltypes.ColBatch // a batch's computed keys; a view of rows; a view of spare
	take          []int32           // a batch's kept rows; the rows gather copies
	pos, n        int
}

type sortEnt struct {
	row      int32
	seq, key int
}

// Schema implements Operator.
func (s *Sort) Schema() *Schema { return s.Child.Schema() }

// before reports whether a sorts ahead of b.
func (s *Sort) before(a, b *sortEnt) bool {
	for k := range s.Keys {
		if c := s.keys[a.key+k].Compare(s.keys[b.key+k]); c != 0 {
			return (c < 0) != s.Desc[k]
		}
	}
	return a.seq < b.seq
}

// Open implements Operator: it drains the child, copying the rows it keeps,
// and sorts them.
func (s *Sort) Open(ctx *EvalContext) error {
	s.pos, s.n = 0, batchSizeOf(ctx)
	s.ents, s.keys = s.ents[:0], s.keys[:0]
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	limit, seq := int(s.TopN), 0
	s.rows.Reset()
	err := eachBatch(s.Child, func(cb *sqltypes.ColBatch) error {
		s.kb.ResetCols(len(s.Keys), cb.Len())
		for j, k := range s.Keys {
			v, err := k.vec(ctx, cb, &s.kb, j)
			if err != nil {
				return err
			}
			s.kb.SetCol(j, v)
		}
		s.take = slices.Grow(s.take[:0], cb.NumActive())
		for k := range cb.NumActive() {
			i := at(cb.Sel, k)
			// The keys go past the kept ones and are dropped again unless the
			// row is kept.
			tail := len(s.keys)
			e := sortEnt{row: int32(s.rows.Len() + len(s.take)), seq: seq, key: tail}
			seq++
			for j := range s.Keys {
				s.keys = append(s.keys, s.kb.Col(j).Value(i))
			}
			switch {
			case limit <= 0 || len(s.ents) < limit:
				s.ents = append(s.ents, e)
				if len(s.ents) == limit {
					for h := limit/2 - 1; h >= 0; h-- {
						s.siftDown(h)
					}
				}
			case s.before(&e, &s.ents[0]):
				// Displace the worst kept row, taking over its key slots.
				copy(s.keys[s.ents[0].key:], s.keys[tail:])
				e.key = s.ents[0].key
				s.ents[0] = e
				s.siftDown(0)
				s.keys = s.keys[:tail]
			default:
				s.keys = s.keys[:tail]
				continue
			}
			s.take = append(s.take, int32(i))
		}
		if s.rows.AppendAt(cb, s.take); s.rows.Len()-len(s.ents) >= len(s.ents)+s.n {
			s.compact()
		}
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(s.ents, func(a, b sortEnt) int {
		switch {
		case a.seq == b.seq:
			return 0
		case s.before(&a, &b):
			return -1
		}
		return 1
	})
	return nil
}

// gather copies the rows of ents, in order, into spare.
func (s *Sort) gather(ents []sortEnt) {
	s.take = s.take[:0]
	for i := range ents {
		s.take = append(s.take, ents[i].row)
	}
	s.view.ResetLanes(&s.rows, 0, s.rows.Len())
	s.spare.Reset()
	s.spare.AppendAt(&s.view, s.take)
}

// compact drops the rows no entry keeps: the entries' rows, gathered, become rows.
func (s *Sort) compact() {
	s.gather(s.ents)
	for i := range s.ents {
		s.ents[i].row = int32(i)
	}
	s.rows, s.spare = s.spare, s.rows
}

// siftDown restores the heap property (no row sorts after its parent) below
// position i.
func (s *Sort) siftDown(i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(s.ents); c++ {
			if s.before(&s.ents[worst], &s.ents[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		s.ents[i], s.ents[worst] = s.ents[worst], s.ents[i]
		i = worst
	}
}

// NextVec implements Operator: the next window of the kept rows, gathered in
// sorted order.
func (s *Sort) NextVec() (*sqltypes.ColBatch, bool, error) {
	if s.pos >= len(s.ents) {
		return nil, false, nil
	}
	end := min(s.pos+s.n, len(s.ents))
	s.gather(s.ents[s.pos:end])
	s.out.ResetLanes(&s.spare, 0, end-s.pos)
	s.pos = end
	return &s.out, true, nil
}

// Close implements Operator.
func (s *Sort) Close() error { s.ents = s.ents[:0]; return s.Child.Close() }

// Limit passes through at most N rows.
type Limit struct {
	Child Operator
	N     int64
	seen  int64
	sel   []int32
}

// Schema implements Operator.
func (l *Limit) Schema() *Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *EvalContext) error { l.seen = 0; return l.Child.Open(ctx) }

// NextVec implements Operator: child batches pass through; the one that
// crosses the limit is cut by shortening its selection.
func (l *Limit) NextVec() (*sqltypes.ColBatch, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	cb, ok, err := l.Child.NextVec()
	if err != nil || !ok {
		return nil, false, err
	}
	if rem := l.N - l.seen; int64(cb.NumActive()) > rem {
		if cb.Sel == nil {
			// The identity selection is kept: it only ever grows.
			for i := len(l.sel); int64(i) < rem; i++ {
				l.sel = append(l.sel, int32(i))
			}
			cb.Sel = l.sel
		}
		cb.Sel = cb.Sel[:rem]
	}
	l.seen += int64(cb.NumActive())
	return cb, true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }
