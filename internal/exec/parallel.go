package exec

import (
	"context"
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
	queues  []atomic.Uint64 // per-worker packed [lo, hi) morsel-index ranges
	effDOP  int
	out     chan parMsg
	stop    chan struct{}
	closed  bool

	// serial marks the inline (effective DOP 1) path, which streams through
	// walk; the exchange path only borrows walk.vout to wrap its last batch.
	serial bool
	walk   chunkWalk

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

func (p *ParallelScan) dop() int {
	d := p.DOP
	if d <= 0 && p.ctx != nil {
		d = p.ctx.MaxDOP
	}
	if g := runtime.GOMAXPROCS(0); d <= 0 || d > g {
		d = g
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Open implements Operator: it partitions the key range into
// cardinality-bounded morsels, clamps the worker count to the available
// work, and either starts the workers or arms the inline serial path.
func (p *ParallelScan) Open(ctx *EvalContext) error {
	p.ctx = ctx
	p.kernel = kernelFor(p.FilterKernel, p.Filter)
	p.closed = false
	p.serial = false
	p.out, p.stop = nil, nil
	p.rowsScanned.Store(0)

	dop := p.dop()
	parts := dop * morselsPerWorker
	if ceil := (p.Table.Len() + minMorselRows - 1) / minMorselRows; parts > ceil {
		parts = ceil
	}
	if parts < 1 {
		parts = 1
	}
	p.morsels = p.Table.Morsels(p.Lo, p.Hi, parts)
	if dop > len(p.morsels) {
		dop = len(p.morsels)
	}
	p.effDOP = dop

	if dop == 1 {
		// Inline serial path: same bulk leaf walks, no exchange.
		p.serial = true
		p.walk.start(p.morsels[0].Start, p.morsels[len(p.morsels)-1].End)
		return nil
	}

	// Contiguous morsel-index queues, one per worker; stealing keeps them
	// balanced when ranges skew.
	p.queues = make([]atomic.Uint64, dop)
	lo, per, rem := 0, len(p.morsels)/dop, len(p.morsels)%dop
	for w := range p.queues {
		hi := lo + per
		if w < rem {
			hi++
		}
		p.queues[w].Store(packRange(uint32(lo), uint32(hi)))
		lo = hi
	}

	p.stop = make(chan struct{})
	p.out = make(chan parMsg, dop*2)
	var wg sync.WaitGroup
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), workerLabels, func(context.Context) {
				p.worker(w)
			})
		}(w)
	}
	go func() {
		wg.Wait()
		close(p.out)
	}()
	return nil
}

// claim returns the next morsel index for worker w: first a pop from the
// front of its own queue, then — once that drains — a steal from the back of
// another worker's queue. All morsels exist before any worker starts, so one
// full sweep finding every queue empty proves there is no work left.
func (p *ParallelScan) claim(w int) (int, bool) {
	q := &p.queues[w]
	for {
		r := q.Load()
		lo, hi := unpackRange(r)
		if lo >= hi {
			break
		}
		if q.CompareAndSwap(r, packRange(lo+1, hi)) {
			return int(lo), true
		}
	}
	for off := 1; off < len(p.queues); off++ {
		v := &p.queues[(w+off)%len(p.queues)]
		for {
			r := v.Load()
			lo, hi := unpackRange(r)
			if lo >= hi {
				break
			}
			if v.CompareAndSwap(r, packRange(lo, hi-1)) {
				return int(hi - 1), true
			}
		}
	}
	return 0, false
}

// filterInto appends the rows of chunk that survive the residual predicate
// onto out. Only row headers move; the stored rows are shared and immutable.
func (p *ParallelScan) filterInto(st *scanFilterScratch, chunk, out sqltypes.Batch) (sqltypes.Batch, error) {
	if _, err := st.narrow(p.kernel, p.ctx, chunk, len(p.schema.Cols)); err != nil {
		return out, err
	}
	return st.vout.AppendRows(out), nil
}

// worker drains morsels via claim, reading each as bulk leaf chunks and
// sending filtered batches into the exchange.
func (p *ParallelScan) worker(w int) {
	n := batchSizeOf(p.ctx)
	chunk := make(sqltypes.Batch, 0, n)
	out := make(sqltypes.Batch, 0, n)
	var st scanFilterScratch
	var scanned int64
	defer func() { p.rowsScanned.Add(scanned) }()
	for {
		idx, ok := p.claim(w)
		if !ok {
			break
		}
		cursor := p.morsels[idx].Start
		for {
			var more bool
			chunk, cursor, more = p.Table.ChunkRows(cursor, p.morsels[idx].End, n, chunk[:0])
			scanned += int64(len(chunk))
			var err error
			out, err = p.filterInto(&st, chunk, out)
			if err != nil {
				p.send(parMsg{err: err})
				return
			}
			if len(out) >= n {
				if !p.send(parMsg{batch: out}) {
					return
				}
				out = make(sqltypes.Batch, 0, n)
			}
			if !more {
				break
			}
		}
	}
	if len(out) > 0 {
		p.send(parMsg{batch: out})
	}
}

// send delivers a message unless the consumer has already stopped.
func (p *ParallelScan) send(m parMsg) bool {
	select {
	case p.out <- m:
		return true
	case <-p.stop:
		return false
	}
}

// NextVec implements Operator. At effective DOP 1 it streams bulk leaf
// chunks inline, narrowed by a selection like the serial Scan; otherwise it
// wraps the next merged batch from the exchange.
func (p *ParallelScan) NextVec() (*sqltypes.ColBatch, bool, error) {
	w := len(p.schema.Cols)
	if !p.serial {
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
	if p.closed {
		return nil
	}
	p.closed = true
	if p.stop != nil {
		close(p.stop)
		for range p.out {
		}
	}
	p.walk.release()
	p.morsels, p.queues = nil, nil
	return nil
}
