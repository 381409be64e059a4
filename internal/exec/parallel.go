package exec

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// workerLabels tags parallel-scan worker goroutines so CPU profiles
// attribute samples to the query phase that spawned them.
var workerLabels = pprof.Labels("rcc_op", "parallel_scan", "rcc_phase", "exec")

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

// parMsg is one message on the exchange channel: a batch or a worker error.
type parMsg struct {
	batch *sqltypes.ColBatch
	err   error
}

// ParallelScan is the morsel-driven parallel table scan: Open partitions the
// clustered key range into morsels sized by table cardinality, splits them
// into per-worker queues, and fans effective-DOP workers over them. Workers
// pop their own queue front and steal from victims' backs via single-word
// CAS ranges, so skew rebalances without a shared counter in the hot path.
// Batches merge through a bounded channel (the exchange); output order is
// nondeterministic, so the optimizer only chooses it when no sort order is
// required — ordered plans (merge-join inputs) fall back to the serial Scan.
//
// Effective DOP is min(requested DOP, GOMAXPROCS, morsel count): parallelism
// never exceeds what the machine or the input can use, which keeps
// throughput monotone in the requested worker count. At effective DOP 1 the
// scan runs inline — no goroutines, no exchange — on the same bulk leaf
// walks as the serial Scan.
//
// Workers latch per step, as the serial scan does: a long parallel scan
// interleaves with writers at step granularity (each step sees a committed
// state). A batch crosses the exchange as the worker's own copy of its
// survivors; the consumer hands it back on its next call, for a worker to
// refill.
type ParallelScan struct {
	Table  *storage.Table
	Lo, Hi storage.Bound
	Filter Compiled // residual predicate, may be nil
	// FilterKernel is the vectorized form of Filter when the planner could
	// compile one; otherwise Filter runs per row through the row view.
	FilterKernel BoolKernel
	// DOP is the worker count; 0 means GOMAXPROCS. The effective count is
	// additionally clamped to GOMAXPROCS and to the number of morsels.
	DOP int

	schema  *Schema
	ctx     *EvalContext
	kernel  BoolKernel
	morsels []storage.Morsel
	queues  []atomic.Uint64 // per-worker packed [lo, hi) morsel-index ranges
	walks   []chunkWalk     // per worker, kept across runs of a reused tree
	effDOP  int
	out     chan parMsg // nil on the inline (effective DOP 1) path
	stop    chan struct{}
	// free holds the exchange batches the consumer is done with; held is
	// the one NextVec handed out last.
	free chan *sqltypes.ColBatch
	held *sqltypes.ColBatch

	walk chunkWalk // the inline path
	only []int     // as Scan's

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

// prepare takes the run's context and decides its shape: the residual
// kernel, the morsels (bounded by table cardinality) and the worker count,
// clamped to the available work. Open starts from it, and so does an
// Aggregate parent, which then drives the morsels itself (scanMorsels).
func (p *ParallelScan) prepare(ctx *EvalContext) {
	p.ctx = ctx
	p.kernel = kernelFor(p.FilterKernel, p.Filter)
	p.out, p.stop = nil, nil
	p.rowsScanned.Store(0)

	// No more workers than cores, no more morsels than the table's
	// cardinality supports, no more workers than morsels.
	dop := p.DOP
	if g := runtime.GOMAXPROCS(0); dop <= 0 || dop > g {
		dop = g
	}
	parts := max(1, min(dop*morselsPerWorker, (p.Table.Len()+minMorselRows-1)/minMorselRows))
	p.morsels = p.Table.Morsels(p.Lo, p.Hi, parts)
	if p.effDOP = min(dop, len(p.morsels)); len(p.walks) < p.effDOP {
		p.walks = make([]chunkWalk, p.effDOP)
	}
	for w := range p.walks {
		p.walks[w].cols = p.only
	}
	p.walk.cols, p.only = p.only, nil
}

// Open implements Operator: it either starts the workers behind the
// exchange or arms the inline serial path.
func (p *ParallelScan) Open(ctx *EvalContext) error {
	p.prepare(ctx)
	if p.effDOP == 1 {
		// Inline serial path: the serial scan's walk, no exchange.
		p.walk.arm(p.kernel, ctx, len(p.schema.Cols))
		p.walk.cur.Keys(p.morsels[0].Start, p.morsels[len(p.morsels)-1].End)
		return nil
	}
	if need := 3*p.effDOP + 1; cap(p.free) < need {
		p.free = make(chan *sqltypes.ColBatch, need) // every batch a run can hold
	}
	p.stop = make(chan struct{})
	p.out = make(chan parMsg, p.effDOP*2)
	go p.exchange(p.stop, p.out)
	return nil
}

// errStopped ends the scan when the consumer has closed the exchange.
var errStopped = errors.New("exec: parallel scan stopped")

// exchange runs the scan into the exchange channel, until done or stopped:
// each worker's survivors, copied into batches of up to the batch size,
// then the error if there was one.
func (p *ParallelScan) exchange(stop <-chan struct{}, out chan<- parMsg) {
	defer close(out)
	send := func(m parMsg) bool {
		select {
		case out <- m:
			return true
		case <-stop:
			return false
		}
	}
	for w := range p.walks[:p.effDOP] {
		p.walks[w].out = p.spare()
	}
	err := p.scanMorsels(func(w, _ int, view *sqltypes.ColBatch) (int, error) {
		return p.walks[w].take(view)
	}, func(w int) error {
		if c := &p.walks[w]; c.out.Len() == c.n {
			if !send(parMsg{batch: c.out}) {
				return errStopped
			}
			c.out = p.spare()
		}
		return nil
	})
	for w := range p.walks[:p.effDOP] {
		if b := p.walks[w].out; err != nil || b.Len() == 0 || !send(parMsg{batch: b}) {
			p.recycle(b)
		}
		p.walks[w].out = nil
	}
	if err != nil && err != errStopped {
		send(parMsg{err: err})
	}
}

// spare returns an empty exchange batch: one the consumer handed back, or a
// new one.
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

// recycle hands an exchange batch back for a worker to refill.
func (p *ParallelScan) recycle(b *sqltypes.ColBatch) {
	if b != nil {
		select {
		case p.free <- b:
		default:
		}
	}
}

// scanMorsels runs a prepared scan to completion. Each leaf window of morsel
// m goes to visit(w, m, view) on the worker w that scanned it, under the
// table's read latch: view is a batch over the leaf's lanes, valid during
// the call, and visit returns how many of its rows it dealt with
// (storage.Table.Step). After each step, the latch released, step(w) runs
// unless it is nil. Morsels are visited concurrently — a consumer keeps one
// state per morsel or per worker (walks[w]) — and the windows of one morsel
// in key order. The first error stops the scan.
func (p *ParallelScan) scanMorsels(visit func(w, m int, view *sqltypes.ColBatch) (int, error), step func(w int) error) error {
	dop := p.effDOP
	for w := range p.walks[:dop] {
		p.walks[w].arm(p.kernel, p.ctx, len(p.schema.Cols))
	}
	if dop == 1 {
		for m := range p.morsels {
			if err := p.walkMorsel(0, m, visit, step); err != nil {
				return err
			}
		}
		return nil
	}
	// Contiguous morsel-index queues, one per worker; stealing keeps them
	// balanced when ranges skew.
	p.queues = make([]atomic.Uint64, dop)
	for w, n := 0, len(p.morsels); w < dop; w++ {
		p.queues[w].Store(packRange(uint32(w*n/dop), uint32((w+1)*n/dop)))
	}
	errs := make([]error, dop)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), workerLabels, func(context.Context) {
				for m, ok := p.claim(w); ok && !failed.Load(); m, ok = p.claim(w) {
					if errs[w] = p.walkMorsel(w, m, visit, step); errs[w] != nil {
						failed.Store(true)
					}
				}
			})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// walkMorsel walks morsel m with worker w's cursor, a step of up to a batch
// of rows at a time.
func (p *ParallelScan) walkMorsel(w, m int, visit func(w, m int, view *sqltypes.ColBatch) (int, error), step func(w int) error) error {
	c := &p.walks[w]
	c.cur.Keys(p.morsels[m].Start, p.morsels[m].End)
	for !c.cur.Done() {
		read, err := p.Table.Step(&c.cur, c.n, func(view *sqltypes.ColBatch) (int, error) { return visit(w, m, view) })
		p.rowsScanned.Add(int64(read))
		if err == nil && step != nil {
			err = step(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// claim returns the next morsel index for worker w: first a pop from the
// front of its own queue, then — once that drains — a steal from the back of
// another worker's queue. All morsels exist before any worker starts, so one
// full sweep finding every queue empty proves there is no work left.
func (p *ParallelScan) claim(w int) (int, bool) {
	for off := range p.queues {
		q := &p.queues[(w+off)%len(p.queues)]
		for r := q.Load(); ; r = q.Load() {
			lo, hi := unpackRange(r)
			if lo >= hi {
				break
			}
			if off == 0 && q.CompareAndSwap(r, packRange(lo+1, hi)) {
				return int(lo), true
			}
			if off != 0 && q.CompareAndSwap(r, packRange(lo, hi-1)) {
				return int(hi - 1), true
			}
		}
	}
	return 0, false
}

// NextVec implements Operator. At effective DOP 1 it streams the serial
// scan's batches inline; otherwise it hands back the batch it returned last
// and returns the next one from the exchange.
func (p *ParallelScan) NextVec() (*sqltypes.ColBatch, bool, error) {
	if p.out != nil {
		p.recycle(p.held)
		msg, ok := <-p.out
		p.held = msg.batch
		return msg.batch, ok && msg.err == nil, msg.err
	}
	cb, n, err := p.walk.next(p.Table)
	p.rowsScanned.Add(int64(n))
	return cb, cb != nil, err
}

// Close implements Operator: it signals the workers to stop and drains the
// exchange so every worker unblocks and exits before Close returns; the
// batches come back for the next run.
func (p *ParallelScan) Close() error {
	if p.stop != nil {
		close(p.stop)
		for msg := range p.out {
			p.recycle(msg.batch)
		}
		p.stop = nil
	}
	p.recycle(p.held)
	p.held, p.morsels, p.queues = nil, nil, nil
	return nil
}
