package exec

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync/atomic"

	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// helperLabels tags every scan helper's goroutine so CPU profiles attribute
// its samples to the query phase that started it; it is built once.
var helperLabels = pprof.WithLabels(context.Background(), pprof.Labels("rcc_op", "parallel_scan", "rcc_phase", "exec"))

// morselsPerWorker oversubscribes morsels relative to workers so stragglers
// (skewed key ranges, scheduling hiccups) rebalance through stealing instead
// of serializing on the slowest fixed assignment.
const morselsPerWorker = 4

// minMorselRows is the granularity floor: a morsel smaller than this costs
// more in claim/latch overhead than it buys in balance, so small tables get
// proportionally fewer morsels (and, through the DOP clamp, fewer workers).
const minMorselRows = 2048

// packRange packs a half-open morsel-index interval [lo, hi) into one word
// so pop (lo+1) and steal (hi-1) race through a single CAS.
func packRange(lo, hi uint32) uint64 { return uint64(lo)<<32 | uint64(hi) }

func unpackRange(r uint64) (lo, hi uint32) { return uint32(r >> 32), uint32(r) }

// parMsg is one message of a helper to the consumer: a batch it filled, or,
// as its last message (batch nil), its end and the error it stopped on.
type parMsg struct {
	batch *sqltypes.ColBatch
	err   error
}

// ParallelScan is the morsel-driven parallel table scan, caller-runs. Open
// partitions the clustered key range into morsels sized by table
// cardinality, deals them to one queue per worker and starts effective-DOP−1
// helpers; the consumer is worker 0. A worker pops its own queue's front and
// steals from another's back, each by one CAS on a packed range. NextVec
// fills the consumer's batches from its morsels on the caller's goroutine
// and, between its morsels, hands on the batches the helpers filled (the
// exchange, a bounded channel); it blocks only when no morsel is left to
// claim. Output order is nondeterministic, so the optimizer only chooses it
// when no sort order is required — ordered plans (merge-join inputs) fall
// back to the serial Scan.
//
// Effective DOP is min(requested DOP, GOMAXPROCS, morsel count), so
// parallelism never exceeds what the machine or the input can use; at 1 the
// consumer walks the whole range as the serial Scan does. Workers latch per
// step, as the serial scan does (each step sees a committed state). The
// morsels, queues, walks, exchange and batches keep their capacity across
// runs of a reused tree, so a run allocates one object per helper, its
// start. Close stops and joins every helper.
type ParallelScan struct {
	Table  *storage.Table
	Lo, Hi storage.Bound
	Filter *Pred // residual predicate, may be nil
	// DOP is the worker count; 0 means GOMAXPROCS. The effective count is
	// additionally clamped to GOMAXPROCS and to the number of morsels.
	DOP int

	schema  *Schema
	ctx     *EvalContext
	effDOP  int
	morsels []storage.Morsel
	splits  []string        // the morsels' boundary keys (storage.Table.Morsels)
	queues  []atomic.Uint64 // per-worker packed [lo, hi) morsel-index ranges
	walks   []chunkWalk     // walks[0] is the consumer's, the rest the helpers'
	agg     *Aggregate      // folds the windows where they lie (scanMorsels)
	stopped atomic.Bool     // a worker failed or the consumer closed
	helpers int             // the helpers of this run that have not ended
	mid     bool            // the consumer's walk is inside a morsel
	// ready is the exchange: helpers' batches, then their ends; its slots,
	// morselsPerWorker a helper, let one fill on while the consumer walks a
	// morsel of its own. free holds the exchange batches no one fills or
	// reads; held is the batch NextVec handed out last.
	ready       chan parMsg
	free        chan *sqltypes.ColBatch
	held        *sqltypes.ColBatch
	only        []Expr // as Scan's
	rowsScanned atomic.Int64
}

// NewParallelScan builds a parallel scan over the table's clustered index.
// The schema's column order must match the stored row layout.
func NewParallelScan(table *storage.Table, schema *Schema) *ParallelScan {
	return &ParallelScan{Table: table, schema: schema}
}

// Schema implements Operator.
func (p *ParallelScan) Schema() *Schema { return p.schema }

// RowsScanned returns the number of rows read from storage so far (before
// the residual filter); used by tests and cost-model validation.
func (p *ParallelScan) RowsScanned() int64 { return p.rowsScanned.Load() }

// EffectiveDOP reports the worker count the last Open actually used, after
// clamping to GOMAXPROCS and the morsel count. Zero before Open.
func (p *ParallelScan) EffectiveDOP() int { return p.effDOP }

// prepare closes any run still open and shapes the next: the morsels
// (bounded by table cardinality), the worker count clamped to the available
// work, and per worker an armed walk and a contiguous queue of morsels.
// Open starts from it, and so does an Aggregate parent (scanMorsels).
func (p *ParallelScan) prepare(ctx *EvalContext) {
	p.Close()
	p.ctx = ctx
	p.rowsScanned.Store(0)
	dop := p.DOP
	if g := runtime.GOMAXPROCS(0); dop <= 0 || dop > g {
		dop = g
	}
	parts := max(1, min(dop*morselsPerWorker, (p.Table.Len()+minMorselRows-1)/minMorselRows))
	p.morsels, p.splits = p.Table.Morsels(p.morsels, p.splits, p.Lo, p.Hi, parts)
	if p.effDOP = min(dop, len(p.morsels)); len(p.walks) < p.effDOP {
		// The free list holds every batch a run can: one filling per
		// helper, the exchange's and the one handed out.
		need := morselsPerWorker * (p.effDOP - 1)
		p.walks, p.queues = make([]chunkWalk, p.effDOP), make([]atomic.Uint64, p.effDOP)
		p.ready, p.free = make(chan parMsg, need), make(chan *sqltypes.ColBatch, need+p.effDOP)
	}
	for w, n := 0, len(p.morsels); w < p.effDOP; w++ {
		c := &p.walks[w]
		if w > 0 && c.out == nil {
			c.out = p.spare() // its last batch went on the exchange
		}
		c.only = p.only
		c.arm(p.Filter, ctx, len(p.schema.Cols))
		c.out.ResetCols(c.width, 0)
		p.queues[w].Store(packRange(uint32(w*n/p.effDOP), uint32((w+1)*n/p.effDOP)))
	}
	p.only = nil
	p.stopped.Store(false)
}

// Open implements Operator: it starts the helpers, or at effective DOP 1
// arms the consumer's walk over the whole range.
func (p *ParallelScan) Open(ctx *EvalContext) error {
	if p.prepare(ctx); p.effDOP == 1 {
		p.queues[0].Store(0)
		p.walks[0].cur.Keys(p.morsels[0].Start, p.morsels[len(p.morsels)-1].End)
		p.mid = true
	}
	p.start(nil)
	return nil
}

// start starts the helpers of a prepared run, workers 1 to effective DOP−1,
// each with a direct go; with agg nil they fill exchange batches.
func (p *ParallelScan) start(agg *Aggregate) {
	p.agg, p.helpers = agg, p.effDOP-1
	for w := 1; w < p.effDOP; w++ {
		go p.help(w)
	}
}

// help is helper w's goroutine: its morsels, then its last batch and its
// end. It touches nothing of the scan after its last message.
func (p *ParallelScan) help(w int) {
	pprof.SetGoroutineLabels(helperLabels)
	err := p.work(w)
	if c := &p.walks[w]; p.agg == nil && err == nil && c.out.Len() > 0 {
		p.ready <- parMsg{batch: c.out}
		c.out = nil
	}
	p.ready <- parMsg{err: err}
}

// work walks morsels as worker w until none is left or the scan stops, a
// step of up to a batch of rows at a time: each leaf window is folded into
// agg, or narrowed and copied into the worker's batch, which goes on the
// exchange when full. A failed step stops the scan.
func (p *ParallelScan) work(w int) error {
	for c := &p.walks[w]; p.claim(w); {
		for !c.cur.Done() && !p.stopped.Load() {
			var read int
			var err error
			if p.agg != nil {
				read, err = p.Table.Step(&c.cur, c.n, func(view *sqltypes.ColBatch) (int, error) { return p.agg.visit(c, w, view) })
			} else if read, err = p.Table.Step(&c.cur, c.n, c.take); err == nil && c.out.Len() == c.n {
				p.ready <- parMsg{batch: c.out}
				c.out = p.spare()
			}
			if p.rowsScanned.Add(int64(read)); err != nil {
				p.stopped.Store(true)
				return err
			}
		}
	}
	return nil
}

// scanMorsels runs a prepared scan to completion into agg, the caller
// working as worker 0 beside the helpers. Morsels are folded concurrently,
// the windows of one morsel in key order; the first error stops the scan.
func (p *ParallelScan) scanMorsels(agg *Aggregate) error {
	p.start(agg)
	err := p.work(0)
	if e := p.join(); err == nil {
		err = e
	}
	return err
}

// join waits for every helper of the run to end, handing back the batches
// still on the exchange, and returns the first error a helper stopped on.
func (p *ParallelScan) join() (err error) {
	for p.helpers > 0 {
		if msg := <-p.ready; msg.batch != nil {
			p.recycle(msg.batch)
		} else if p.helpers--; err == nil {
			err = msg.err
		}
	}
	return err
}

// spare returns an empty exchange batch: one from the free list, or a new
// one.
func (p *ParallelScan) spare() *sqltypes.ColBatch {
	var b *sqltypes.ColBatch
	select {
	case b = <-p.free:
	default:
		b = new(sqltypes.ColBatch)
	}
	b.ResetCols(len(p.schema.Cols), 0)
	return b
}

// recycle puts an exchange batch back on the free list; the consumer's own
// stays with it.
func (p *ParallelScan) recycle(b *sqltypes.ColBatch) {
	if b != nil && b != p.walks[0].out {
		select {
		case p.free <- b:
		default:
		}
	}
}

// claim arms worker w's walk over its next morsel: first a pop from the
// front of its own queue, then — once that drains — a steal from the back of
// another worker's queue. All morsels are dealt before any helper starts, so
// one full sweep finding every queue empty proves there is no work left. A
// stopped scan has none.
func (p *ParallelScan) claim(w int) bool {
	for off := range p.effDOP {
		q := &p.queues[(w+off)%p.effDOP]
		for r := q.Load(); !p.stopped.Load(); r = q.Load() {
			lo, hi := unpackRange(r)
			if lo >= hi {
				break
			}
			m, next := lo, packRange(lo+1, hi) // pop its own front
			if off != 0 {
				m, next = hi-1, packRange(lo, hi-1) // steal another's back
			}
			if q.CompareAndSwap(r, next) {
				c := &p.walks[w]
				c.m = int(m)
				c.cur.Keys(p.morsels[m].Start, p.morsels[m].End)
				return true
			}
		}
	}
	return false
}

// NextVec implements Operator. It takes back the batch it returned last and
// fills the consumer's own from its morsels, returning it when full. Between
// its morsels it returns a batch a helper filled if one waits, else claims
// the next morsel; with none left it returns what its batch holds, then
// waits for the helpers.
func (p *ParallelScan) NextVec() (*sqltypes.ColBatch, bool, error) {
	c := &p.walks[0]
	if p.held == c.out {
		c.out.ResetCols(c.width, 0)
	}
	p.recycle(p.held)
	for p.held = nil; ; {
		for p.mid && !c.cur.Done() && c.out.Len() < c.n {
			read, err := p.Table.Step(&c.cur, c.n, c.take)
			if p.rowsScanned.Add(int64(read)); err != nil {
				p.stopped.Store(true)
				return nil, false, err
			}
		}
		p.mid = p.mid && !c.cur.Done()
		var msg parMsg
		switch {
		case c.out.Len() == c.n:
			msg.batch = c.out
		case len(p.ready) > 0: // between morsels; only the consumer receives
			msg = <-p.ready
		case p.claim(0):
			p.mid = true
			continue
		case c.out.Len() > 0:
			msg.batch = c.out
		case p.helpers == 0:
			return nil, false, nil
		default:
			msg = <-p.ready
		}
		if msg.batch != nil {
			p.held = msg.batch
			return msg.batch, true, nil
		}
		if p.helpers--; msg.err != nil {
			return nil, false, msg.err
		}
	}
}

// Close implements Operator: it stops the helpers and joins them, and every
// batch comes back for the next run. Close on a closed scan does nothing.
func (p *ParallelScan) Close() error {
	p.stopped.Store(true)
	p.join()
	p.recycle(p.held)
	p.held, p.mid = nil, false
	return nil
}
