// Package broken deliberately fails the type check (the identifier below
// is undefined) while still parsing, so the strict tests can observe a
// package the loader type-checked only partly. Parse errors would abort
// loading outright; a type error is the silent kind StrictDiagnostics
// exists to surface.
package broken

func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += weight(x) // weight is undefined: a deliberate type error
	}
	return total
}
