package exec

import "relaxedcc/internal/sqltypes"

// BatchAdapter, RowAdapter and VecAdapter remain only because the frozen
// bench/traced.go names them in its operator type switch (and reads their
// Child). Nothing constructs them; the next benchmark PR that may edit
// bench/ removes that switch's cases and this file with them.
type passThrough struct{ Child Operator }

func (a *passThrough) Schema() *Schema             { return a.Child.Schema() }
func (a *passThrough) Open(ctx *EvalContext) error { return a.Child.Open(ctx) }
func (a *passThrough) Close() error                { return a.Child.Close() }
func (a *passThrough) NextVec() (*sqltypes.ColBatch, bool, error) {
	return a.Child.NextVec()
}

type BatchAdapter struct{ passThrough }
type RowAdapter struct{ passThrough }
type VecAdapter struct{ passThrough }
