package harness

import "fmt"

// inv is one invariant of a report: the field (or relation between fields)
// it is about, as the report's JSON names it, and whether it holds.
type inv struct {
	field string
	ok    bool
}

// firstBroken returns an error naming the first invariant that does not
// hold, nil when all do. The report checks are lists of these: a gate reads
// the struct that wrote the report, so it cannot drift from it, and a test
// can break one field and see the gate name it.
func firstBroken(where string, invs ...inv) error {
	for _, c := range invs {
		if !c.ok {
			return fmt.Errorf("%s: %s", where, c.field)
		}
	}
	return nil
}

func inUnit(v float64) bool { return v >= 0 && v <= 1 }
