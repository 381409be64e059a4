package exec

// BatchAdapter, RowAdapter and VecAdapter remain only because the frozen
// bench/traced.go names them in its operator type switch (and reads their
// Child). Nothing constructs them — they borrow Filter's Child and methods;
// the next benchmark PR that may edit bench/ removes that switch's cases and
// this file with them.
type (
	BatchAdapter struct{ Filter }
	RowAdapter   struct{ Filter }
	VecAdapter   struct{ Filter }
)
