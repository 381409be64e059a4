package sqltypes

// Batch is an ordered slice of rows: the row-major backing of a ColBatch
// and the executor's row-reference buffer type. The slice is owned by
// whoever built it and may be reused; the rows themselves are shared and
// immutable, as everywhere in the executor.
type Batch []Row
