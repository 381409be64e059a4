// Package exec implements the physical query operators shared by the
// back-end server and the cache DBMS: scans, filters, projections, joins,
// sorting, aggregation — and the paper's SwitchUnion operator with a
// currency guard, the run-time half of C&C enforcement (Section 3.2.3).
//
// Execution follows the classic open/next/close iterator model. A Plan
// wraps the operator tree and reports per-phase timings (setup, run,
// shutdown) matching the phases profiled in the paper's Table 4.5.
package exec

import (
	"fmt"
	"strings"

	"relaxedcc/internal/sqltypes"
)

// Col describes one output column of an operator: the binding (table alias
// or derived-table name) it belongs to, its name, and its type.
type Col struct {
	Binding string
	Name    string
	Kind    sqltypes.Kind
}

// Schema is an ordered list of output columns.
type Schema struct {
	Cols []Col
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Col) *Schema { return &Schema{Cols: cols} }

// Lookup resolves a column reference to its ordinal. If binding is empty the
// name must be unambiguous across bindings. It returns -1 when not found and
// -2 when ambiguous.
func (s *Schema) Lookup(binding, name string) int {
	found := -1
	for i, c := range s.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if binding != "" {
			if c.Binding == binding {
				return i
			}
			continue
		}
		if found >= 0 {
			return -2
		}
		found = i
	}
	return found
}

// Resolve is Lookup for a reference that must name exactly one column: it
// fails with ErrAmbiguous or ErrNoColumn otherwise.
func (s *Schema) Resolve(binding, name string) (int, error) {
	switch i := s.Lookup(binding, name); i {
	case -2:
		return 0, ErrAmbiguous(name)
	case -1:
		return 0, ErrNoColumn(binding, name)
	default:
		return i, nil
	}
}

// Concat returns the schema of a join output: left columns then right.
func Concat(a, b *Schema) *Schema {
	out := &Schema{Cols: make([]Col, 0, len(a.Cols)+len(b.Cols))}
	out.Cols = append(out.Cols, a.Cols...)
	out.Cols = append(out.Cols, b.Cols...)
	return out
}

// String renders the schema for diagnostics.
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		if c.Binding != "" {
			parts[i] = c.Binding + "." + c.Name
		} else {
			parts[i] = c.Name
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ColumnNames returns the bare column names in order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// ErrAmbiguous reports an ambiguous column reference.
func ErrAmbiguous(name string) error {
	return fmt.Errorf("exec: ambiguous column reference %q", name)
}

// ErrNoColumn reports an unresolvable column reference.
func ErrNoColumn(binding, name string) error {
	if binding != "" {
		return fmt.Errorf("exec: no column %s.%s", binding, name)
	}
	return fmt.Errorf("exec: no column %s", name)
}
