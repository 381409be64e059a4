package exec

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"relaxedcc/internal/sqltypes"
)

// renderRows projects rows to strings so multisets can be compared.
func renderRows(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint([]sqltypes.Value(r))
	}
	return out
}

func assertSameRows(t *testing.T, name string, got, want []sqltypes.Row, ordered bool) {
	t.Helper()
	g, w := renderRows(got), renderRows(want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", name, i, g[i], w[i])
		}
	}
}

// TestScanReopenAfterClose ensures the pooled snapshot buffers are
// re-acquired cleanly across Open/Close cycles.
func TestScanReopenAfterClose(t *testing.T) {
	tbl := storageTable(t)
	s := NewScan(tbl, testSchema("t"))
	for i := 0; i < 3; i++ {
		res, err := Run(s, ctx(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 100 {
			t.Fatalf("pass %d: %d rows", i, len(res.Rows))
		}
	}
	// Double Close must be safe.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// closeProbe counts Open/Close calls, optionally failing Open (with openErr
// when set, so tests can model classified failures).
type closeProbe struct {
	*Values
	opens, closes int
	failOpen      bool
	openErr       error
}

func (c *closeProbe) Open(ctx *EvalContext) error {
	c.opens++
	if c.failOpen {
		if c.openErr != nil {
			return c.openErr
		}
		return errors.New("open failed")
	}
	return c.Values.Open(ctx)
}

func (c *closeProbe) Close() error {
	c.closes++
	return c.Values.Close()
}

// TestSwitchUnionCloseClosesAllOpenedBranches is the regression test for the
// leak where Close only released the currently chosen child: if the currency
// guard picks different branches across re-opens, every branch that was ever
// opened must be closed.
func TestSwitchUnionCloseClosesAllOpenedBranches(t *testing.T) {
	s := testSchema("t")
	a := &closeProbe{Values: NewValues(s, testRows(2))}
	b := &closeProbe{Values: NewValues(s, testRows(3))}
	branch := 0
	su := &SwitchUnion{
		Children: []Operator{a, b},
		Selector: func(*EvalContext) (int, time.Time) { return branch, time.Time{} },
	}
	if err := su.Open(ctx()); err != nil {
		t.Fatal(err)
	}
	// The guard flips before the first branch was closed (re-execution of a
	// cached plan after the region fell stale).
	branch = 1
	if err := su.Open(ctx()); err != nil {
		t.Fatal(err)
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}
	if a.closes != 1 || b.closes != 1 {
		t.Fatalf("closes = (%d, %d), want both branches closed once", a.closes, b.closes)
	}
	// A second Close must not double-close anything.
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}
	if a.closes != 1 || b.closes != 1 {
		t.Fatalf("second Close re-closed children: (%d, %d)", a.closes, b.closes)
	}
}

// TestSwitchUnionCloseAfterFailedOpen: a child whose Open fails may still
// hold resources; Close must reach it.
func TestSwitchUnionCloseAfterFailedOpen(t *testing.T) {
	s := testSchema("t")
	c := &closeProbe{Values: NewValues(s, nil), failOpen: true}
	su := &SwitchUnion{
		Children: []Operator{c},
		Selector: func(*EvalContext) (int, time.Time) { return 0, time.Time{} },
	}
	if err := su.Open(ctx()); err == nil {
		t.Fatal("Open should have failed")
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}
	if c.closes != 1 {
		t.Fatalf("failed-open child closed %d times, want 1", c.closes)
	}
}

// TestSwitchUnionBatchPath drains a SwitchUnion in small batches and checks
// the guard still ran exactly once.
func TestSwitchUnionBatchPath(t *testing.T) {
	s := testSchema("t")
	calls := 0
	su := &SwitchUnion{
		Children: []Operator{NewValues(s, testRows(5)), NewValues(s, testRows(9))},
		Selector: func(*EvalContext) (int, time.Time) { calls++; return 1, time.Time{} },
	}
	res, err := Run(su, &EvalContext{Now: testNow, BatchSize: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if calls != 1 {
		t.Fatalf("selector evaluated %d times, want once per open", calls)
	}
}
