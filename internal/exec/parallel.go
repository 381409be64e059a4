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
	batch sqltypes.Batch
	err   error
}

// scanFilterScratch is the state for residual filtering: a reusable
// row-backed view over each storage chunk plus its selection buffer. Each
// parallel worker owns one exclusively, so kernels run without
// synchronization; the serial walks hold one inside their chunkWalk.
type scanFilterScratch struct {
	vout   sqltypes.ColBatch
	selbuf []int32
}

// narrow points vout at rows and applies the residual kernel, reporting
// whether any row survives.
func (st *scanFilterScratch) narrow(k BoolKernel, ctx *EvalContext, rows sqltypes.Batch, width int) (bool, error) {
	st.vout.ResetRows(rows, width)
	return applyKernel(k, ctx, &st.vout, &st.selbuf)
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
// Unlike Scan, which snapshots the whole table under one read latch, workers
// latch per chunk: a long parallel scan interleaves with writers at chunk
// granularity (each chunk sees a committed state).
type ParallelScan struct {
	Table  *storage.Table
	Lo, Hi storage.Bound
	Filter Compiled // residual predicate, may be nil
	// FilterKernel is the vectorized form of Filter when the planner could
	// compile one; otherwise Filter runs per row through the row view.
	FilterKernel BoolKernel
	// DOP is the worker count; 0 defers to EvalContext.MaxDOP, then
	// GOMAXPROCS. The effective count is additionally clamped to GOMAXPROCS
	// and to the number of morsels.
	DOP int

	schema  *Schema
	ctx     *EvalContext
	kernel  BoolKernel
	morsels []storage.Morsel
	queues  []atomic.Uint64     // per-worker packed [lo, hi) morsel-index ranges
	filters []scanFilterScratch // per worker, kept across runs of a reused tree
	effDOP  int
	out     chan parMsg // nil on the inline (effective DOP 1) path
	stop    chan struct{}

	// walk streams the inline path; the exchange path only borrows walk.vout
	// to wrap its last batch.
	walk chunkWalk

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
	if dop <= 0 && ctx != nil {
		dop = ctx.MaxDOP
	}
	if g := runtime.GOMAXPROCS(0); dop <= 0 || dop > g {
		dop = g
	}
	parts := max(1, min(dop*morselsPerWorker, (p.Table.Len()+minMorselRows-1)/minMorselRows))
	p.morsels = p.Table.Morsels(p.Lo, p.Hi, parts)
	p.effDOP = min(dop, len(p.morsels))
}

// Open implements Operator: it either starts the workers behind the
// exchange or arms the inline serial path.
func (p *ParallelScan) Open(ctx *EvalContext) error {
	p.prepare(ctx)
	if p.effDOP == 1 {
		// Inline serial path: same bulk leaf walks, no exchange.
		p.walk.start(p.morsels[0].Start, p.morsels[len(p.morsels)-1].End)
		return nil
	}
	p.stop = make(chan struct{})
	p.out = make(chan parMsg, p.effDOP*2)
	go p.exchange(p.stop, p.out)
	return nil
}

// errStopped ends the scan when the consumer has closed the exchange.
var errStopped = errors.New("exec: parallel scan stopped")

// exchange runs the scan into the exchange channel, until done or stopped:
// each worker's surviving rows in batches (only row headers move; the stored
// rows are shared and immutable), then the error if there was one.
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
	n := batchSizeOf(p.ctx)
	outs := make([]sqltypes.Batch, p.effDOP)
	err := p.scanMorsels(func(w, _ int, cb *sqltypes.ColBatch) error {
		if outs[w] == nil {
			outs[w] = make(sqltypes.Batch, 0, n)
		}
		if outs[w] = cb.AppendRows(outs[w]); len(outs[w]) >= n {
			if !send(parMsg{batch: outs[w]}) {
				return errStopped
			}
			outs[w] = nil
		}
		return nil
	})
	for _, out := range outs {
		if err == nil && len(out) > 0 && !send(parMsg{batch: out}) {
			return
		}
	}
	if err != nil && err != errStopped {
		send(parMsg{err: err})
	}
}

// scanMorsels runs a prepared scan to completion: every chunk's surviving
// rows go to visit(worker, morsel, batch) on the goroutine that scanned
// them. Morsels are visited concurrently — a consumer keeps one state per
// morsel or per worker — and the batches of one morsel in key order. The
// batch is the worker's scratch, valid during the call. The first error
// stops the scan.
func (p *ParallelScan) scanMorsels(visit func(w, m int, cb *sqltypes.ColBatch) error) error {
	dop := p.effDOP
	if dop == 1 {
		p.walk.start("", "") // for its pooled buffer and scratch
		for m := range p.morsels {
			if err := p.walkMorsel(m, p.walk.buf, &p.walk.scanFilterScratch, func(cb *sqltypes.ColBatch) error { return visit(0, m, cb) }); err != nil {
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
	for len(p.filters) < dop {
		p.filters = append(p.filters, scanFilterScratch{})
	}
	errs := make([]error, dop)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), workerLabels, func(context.Context) {
				chunk := getRowBuf()
				defer putRowBuf(chunk)
				for m, ok := p.claim(w); ok && !failed.Load(); m, ok = p.claim(w) {
					if errs[w] = p.walkMorsel(m, chunk, &p.filters[w], func(cb *sqltypes.ColBatch) error { return visit(w, m, cb) }); errs[w] != nil {
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

// walkMorsel reads morsel m as bulk leaf chunks into *chunk, narrows each by
// the residual kernel and hands the chunks with a surviving row to visit.
func (p *ParallelScan) walkMorsel(m int, chunk *sqltypes.Batch, st *scanFilterScratch, visit func(cb *sqltypes.ColBatch) error) error {
	n, width := batchSizeOf(p.ctx), len(p.schema.Cols)
	cursor, more := p.morsels[m].Start, true
	for more {
		*chunk, cursor, more = p.Table.ChunkRows(cursor, p.morsels[m].End, n, (*chunk)[:0])
		p.rowsScanned.Add(int64(len(*chunk)))
		if ok, err := st.narrow(p.kernel, p.ctx, *chunk, width); err != nil {
			return err
		} else if ok {
			if err := visit(&st.vout); err != nil {
				return err
			}
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

// NextVec implements Operator. At effective DOP 1 it streams bulk leaf
// chunks inline, narrowed by a selection like the serial Scan; otherwise it
// wraps the next merged batch from the exchange.
func (p *ParallelScan) NextVec() (*sqltypes.ColBatch, bool, error) {
	w := len(p.schema.Cols)
	if p.out != nil {
		msg, ok := <-p.out
		if !ok || msg.err != nil {
			return nil, false, msg.err
		}
		p.walk.vout.ResetRows(msg.batch, w)
		return &p.walk.vout, true, nil
	}
	cb, n, err := p.walk.next(p.Table, p.ctx, p.kernel, w)
	p.rowsScanned.Add(int64(n))
	return cb, cb != nil, err
}

// Close implements Operator: it signals the workers to stop and drains the
// exchange so every worker unblocks and exits before Close returns. The
// inline path just releases its buffers.
func (p *ParallelScan) Close() error {
	if p.stop != nil {
		close(p.stop)
		for range p.out {
		}
		p.stop = nil
	}
	p.walk.release()
	p.morsels, p.queues = nil, nil
	return nil
}
