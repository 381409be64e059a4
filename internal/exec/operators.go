package exec

import (
	"sort"

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
	// operator. Rows reachable through a row-backed batch are shared and
	// immutable and may be retained.
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
	win    rowWindow
}

// NewValues builds a Values operator.
func NewValues(schema *Schema, rows []sqltypes.Row) *Values {
	return &Values{Rows: rows, schema: schema}
}

// Schema implements Operator.
func (v *Values) Schema() *Schema { return v.schema }

// Open implements Operator.
func (v *Values) Open(ctx *EvalContext) error { v.win.reset(v.Rows, ctx); return nil }

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
// Clustered scans (Index == "") stream chunk-at-a-time straight from the
// B+-tree: each chunk is a bulk leaf walk under one short read latch, so the
// scan never materializes the table and interleaves with writers at chunk
// granularity — the same read-committed view ScanMorsel gives parallel
// workers. Index scans snapshot the matching row references at Open.
type Scan struct {
	Table  *storage.Table
	Index  string // index to drive the scan; "" = clustered order
	Lo, Hi storage.Bound
	// LoParam and HiParam, when positive, are the slots of the literals Lo's
	// and Hi's single value came from: an execution with parameters reads the
	// bound from there.
	LoParam, HiParam int
	Filter           Compiled // residual predicate, may be nil
	// FilterKernel, when non-nil, is the vectorized form of Filter, evaluated
	// column-at-a-time over each chunk. Without one, Filter runs per row
	// through the batch's row view. Either way survivors are carried in the
	// batch's selection vector and no row is copied.
	FilterKernel BoolKernel

	schema *Schema
	ctx    *EvalContext
	kernel BoolKernel
	// An index scan makes the callback that collects the Open snapshot at its
	// first Open and keeps it, with room for a bound read from a parameter,
	// for every later run of the tree.
	collect  func(sqltypes.Row) bool
	lov, hiv [1]sqltypes.Value
	// walk streams a clustered scan; an index scan keeps its Open snapshot
	// in walk.buf (pos is the cursor into it) and emits through walk's
	// scratch.
	walk chunkWalk
	pos  int

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

// Open implements Operator. Index scans capture a snapshot of matching row
// references under the table's read latch; clustered scans prepare the
// streaming cursor and read nothing yet.
func (s *Scan) Open(ctx *EvalContext) error {
	s.ctx = ctx
	s.pos, s.RowsScanned = 0, 0
	s.kernel = kernelFor(s.FilterKernel, s.Filter)
	s.walk.start("", "")
	if s.Index == "" {
		return nil
	}
	if s.collect == nil {
		s.collect = func(r sqltypes.Row) bool {
			*s.walk.buf = append(*s.walk.buf, r)
			return true
		}
	}
	*s.walk.buf = (*s.walk.buf)[:0]
	lo, hi := s.Lo, s.Hi
	if ctx != nil && ctx.Params != nil {
		if s.LoParam > 0 {
			s.lov[0], lo.Vals = ctx.Params[s.LoParam-1], s.lov[:]
		}
		if s.HiParam > 0 {
			s.hiv[0], hi.Vals = ctx.Params[s.HiParam-1], s.hiv[:]
		}
	}
	return s.Table.ScanIndex(s.Index, lo, hi, s.collect)
}

// NextVec implements Operator: the next chunk or snapshot window as a
// row-backed batch, narrowed by the pushed-down predicate.
func (s *Scan) NextVec() (*sqltypes.ColBatch, bool, error) {
	if s.walk.buf == nil {
		return nil, false, nil
	}
	if s.Index == "" {
		cb, n, err := s.walk.next(s.Table, s.ctx, s.kernel, len(s.schema.Cols))
		s.RowsScanned += n
		return cb, cb != nil, err
	}
	for snap, n := *s.walk.buf, batchSizeOf(s.ctx); s.pos < len(snap); {
		rows := snap[s.pos:min(s.pos+n, len(snap))]
		s.pos += len(rows)
		s.RowsScanned += len(rows)
		if ok, err := s.walk.narrow(s.kernel, s.ctx, rows, len(s.schema.Cols)); err != nil {
			return nil, false, err
		} else if ok {
			return &s.walk.vout, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Operator. It returns the pooled buffer.
func (s *Scan) Close() error {
	s.walk.release()
	return nil
}

// chunkWalk streams the clustered key range [cursor, end) as row-backed
// batches: each chunk is one bulk leaf walk under a short read latch,
// narrowed by the residual kernel. Scan's clustered arm and ParallelScan's
// inline arm both run on it.
type chunkWalk struct {
	scanFilterScratch
	buf         *sqltypes.Batch // pooled chunk buffer
	cursor, end string
	done        bool
}

// start arms the walk over [cursor, end), "" meaning unbounded.
func (c *chunkWalk) start(cursor, end string) {
	c.cursor, c.end, c.done = cursor, end, false
	if c.buf == nil {
		c.buf = getRowBuf()
	}
}

// next returns the next chunk with a surviving row (nil at end of range)
// and the number of rows read from storage on the way.
func (c *chunkWalk) next(t *storage.Table, ctx *EvalContext, k BoolKernel, width int) (*sqltypes.ColBatch, int, error) {
	scanned := 0
	for n := batchSizeOf(ctx); !c.done; {
		rows, cursor, more := t.ChunkRows(c.cursor, c.end, n, (*c.buf)[:0])
		*c.buf, c.cursor, c.done = rows, cursor, !more
		scanned += len(rows)
		if len(rows) == 0 {
			continue
		}
		if ok, err := c.narrow(k, ctx, rows, width); err != nil {
			return nil, scanned, err
		} else if ok {
			return &c.vout, scanned, nil
		}
	}
	return nil, scanned, nil
}

// release returns the pooled buffer and ends the walk.
func (c *chunkWalk) release() {
	putRowBuf(c.buf)
	c.buf, c.done = nil, true
}

// ---- Filter ----

// Filter passes through rows satisfying a predicate: it refines the child
// batch's selection vector in place and forwards the same container — no
// rows move.
type Filter struct {
	Child Operator
	Pred  Compiled
	// Kernel, when non-nil, is the vectorized form of Pred; otherwise Pred
	// evaluates per active row through the batch's row view.
	Kernel BoolKernel

	ctx    *EvalContext
	kernel BoolKernel
	selbuf []int32
}

// Schema implements Operator.
func (f *Filter) Schema() *Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *EvalContext) error {
	f.ctx = ctx
	f.kernel = kernelFor(f.Kernel, f.Pred)
	return f.Child.Open(ctx)
}

// NextVec implements Operator.
func (f *Filter) NextVec() (*sqltypes.ColBatch, bool, error) {
	for {
		cb, ok, err := f.Child.NextVec()
		if err != nil || !ok {
			return nil, false, err
		}
		if ok, err := applyKernel(f.kernel, f.ctx, cb, &f.selbuf); err != nil {
			return nil, false, err
		} else if ok {
			return cb, true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// ---- Project ----

// Project computes output expressions over child rows.
type Project struct {
	Child Operator
	// Exprs are the output expressions; unused when Cols is set.
	Exprs []Compiled
	// Cols, when non-nil, marks the projection as a pure column gather:
	// output column j is input column Cols[j], and no closure runs.
	Cols []int
	Out  *Schema

	ctx *EvalContext
	// identity marks a gather that keeps every input column in place (it
	// only renames): child batches are forwarded untouched.
	identity bool
	in       sqltypes.Batch  // dense view of a selected or columnar input batch
	buf      *sqltypes.Batch // pooled output row references
	out      sqltypes.ColBatch
}

// Schema implements Operator.
func (p *Project) Schema() *Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open(ctx *EvalContext) error {
	p.ctx = ctx
	p.identity = p.Cols != nil && len(p.Cols) == len(p.Child.Schema().Cols)
	for j, ord := range p.Cols {
		p.identity = p.identity && ord == j
	}
	return p.Child.Open(ctx)
}

// NextVec implements Operator. A gather over a purely columnar batch
// forwards the child's vectors — reordered, selection intact, nothing
// materialized. Every other case builds a row-backed batch whose rows are
// carved out of one arena per batch; the arena is never reused, so emitted
// rows stay valid forever, and a row-backed input (a point read) is
// projected without transposing anything.
func (p *Project) NextVec() (*sqltypes.ColBatch, bool, error) {
	in, ok, err := p.Child.NextVec()
	if err != nil || !ok || p.identity {
		return in, ok, err
	}
	w := len(p.Out.Cols)
	if p.Cols != nil && in.Rows == nil {
		p.out.ResetCols(w, in.Len())
		for j, ord := range p.Cols {
			p.out.SetCol(j, in.Col(ord))
		}
		p.out.Sel = in.Sel
		return &p.out, true, nil
	}
	rows := denseRows(in, &p.in)
	if p.buf == nil {
		p.buf = getRowBuf()
	}
	out := (*p.buf)[:0]
	arena := make([]sqltypes.Value, len(rows)*w)
	for k, src := range rows {
		dst := arena[k*w : (k+1)*w : (k+1)*w]
		if p.Cols != nil {
			for j, ord := range p.Cols {
				dst[j] = src[ord]
			}
		} else {
			for j, e := range p.Exprs {
				if dst[j], err = e(p.ctx, src); err != nil {
					*p.buf = out
					return nil, false, err
				}
			}
		}
		out = append(out, dst)
	}
	*p.buf = out
	p.out.ResetRows(out, w)
	return &p.out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error {
	putRowBuf(p.buf)
	p.buf = nil
	return p.Child.Close()
}

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
// the inner table's index on equality keys computed from the outer row.
type IndexLoopJoin struct {
	Outer    Operator
	Inner    *storage.Table
	Index    string
	InnerSch *Schema    // schema of inner rows (stored layout)
	OuterKey []Compiled // one per leading index column
	Residual Compiled   // evaluated over concat(outer, inner)
	Kind     JoinKind

	schema *Schema
	ctx    *EvalContext
	out    rowPairs
	key    sqltypes.Row   // reusable seek key
	found  sqltypes.Batch // reusable match buffer
	// InnerLookups counts index seeks, for cost validation.
	InnerLookups int
}

// NewIndexLoopJoin builds an index nested-loop join.
func NewIndexLoopJoin(outer Operator, inner *storage.Table, index string, innerSch *Schema, outerKey []Compiled, residual Compiled, kind JoinKind) *IndexLoopJoin {
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
	j.ctx = ctx
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

// lookup seeks the inner index with outer's key. The key and match buffers
// are reused: a row's matches are consumed before the next seek.
func (j *IndexLoopJoin) lookup(outer sqltypes.Row) (sqltypes.Batch, error) {
	j.InnerLookups++
	j.key = j.key[:0]
	for _, k := range j.OuterKey {
		v, err := k(j.ctx, outer)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			return nil, nil
		}
		j.key = append(j.key, v)
	}
	var err error
	j.found, err = j.Inner.SeekEq(j.Index, j.key, j.found[:0])
	return j.found, err
}

// Close implements Operator.
func (j *IndexLoopJoin) Close() error { return j.Outer.Close() }

// ---- Sort / Limit ----

// Sort materializes and orders child output. The order is stable: rows with
// equal keys keep their input order.
type Sort struct {
	Child Operator
	Keys  []Compiled
	Desc  []bool
	// TopN, when positive, bounds the output to its first TopN rows (the
	// planner sets it from TOP n): Open then keeps a heap of the best TopN
	// rows seen instead of materializing and sorting the whole input.
	TopN int64

	// ents are the rows kept, each with its input position (the tie-break
	// that makes the order stable) and the offset of its evaluated keys in
	// keys; in top-N mode ents is a heap with the worst kept row at the root.
	ents []sortEnt
	keys []sqltypes.Value
	rows []sqltypes.Row
	win  rowWindow
}

type sortEnt struct {
	row      sqltypes.Row
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

// Open implements Operator: it drains the child and sorts what it keeps.
func (s *Sort) Open(ctx *EvalContext) error {
	s.win.reset(nil, ctx)
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	limit := int(s.TopN)
	s.ents, s.keys = s.ents[:0], s.keys[:0]
	var in rowReader
	for seq := 0; ; seq++ {
		row, ok, err := in.next(s.Child)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		// The keys go past the kept ones and are dropped again unless the
		// row is kept.
		tail := len(s.keys)
		e := sortEnt{row: row, seq: seq, key: tail}
		for _, k := range s.Keys {
			v, err := k(ctx, row)
			if err != nil {
				return err
			}
			s.keys = append(s.keys, v)
		}
		if limit <= 0 || len(s.ents) < limit {
			s.ents = append(s.ents, e)
			if len(s.ents) == limit {
				for i := limit/2 - 1; i >= 0; i-- {
					s.siftDown(i)
				}
			}
			continue
		}
		if s.before(&e, &s.ents[0]) {
			// Displace the worst kept row, taking over its key slots.
			copy(s.keys[s.ents[0].key:], s.keys[tail:])
			e.key = s.ents[0].key
			s.ents[0] = e
			s.siftDown(0)
		}
		s.keys = s.keys[:tail]
	}
	sort.Slice(s.ents, func(i, j int) bool { return s.before(&s.ents[i], &s.ents[j]) })
	s.rows = s.rows[:0]
	for i := range s.ents {
		s.rows = append(s.rows, s.ents[i].row)
	}
	s.win.reset(s.rows, ctx)
	return nil
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

// NextVec implements Operator: zero-copy windows of the sorted output.
func (s *Sort) NextVec() (*sqltypes.ColBatch, bool, error) {
	return s.win.next(len(s.Schema().Cols))
}

// Close implements Operator.
func (s *Sort) Close() error { s.win.reset(nil, nil); return s.Child.Close() }

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
