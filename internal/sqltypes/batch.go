package sqltypes

import "runtime"

// Batch is an ordered slice of rows: the row-major backing of a ColBatch
// and the executor's row-reference buffer type. The slice is owned by
// whoever built it and may be reused; the rows themselves are shared and
// immutable, as everywhere in the executor.
type Batch []Row

// Warm loads the first cache line of every row of b. The loads do not depend
// on one another, so the misses of rows that have fallen out of cache overlap
// instead of being taken one at a time between the calls of a per-row
// evaluator; a row's leading columns are then at hand when it is evaluated.
// Column kernels read in such a loop anyway and do not need it.
func (b Batch) Warm() {
	var k Kind
	for _, r := range b {
		if len(r) > 0 {
			k |= r[0].kind
		}
	}
	runtime.KeepAlive(k)
}
