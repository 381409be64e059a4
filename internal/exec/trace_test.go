package exec

import (
	"strings"
	"testing"
	"time"
)

// TestInstrumentRowsAndShape runs a small instrumented tree and checks the
// trace mirrors the plan with correct row counts.
func TestInstrumentRowsAndShape(t *testing.T) {
	s := testSchema("t")
	inner := NewValues(s, testRows(10))
	f := &Filter{Child: inner, Pred: pred(t, "id <= 4", s)}
	root, node := Instrument(f)
	res, err := Run(root, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if node.Name != "Filter" || node.Rows != 4 || node.Opens != 1 {
		t.Fatalf("root node = %+v", node)
	}
	if len(node.Children) != 1 || node.Children[0].Name != "Values" {
		t.Fatalf("children = %+v", node.Children)
	}
	if node.Children[0].Rows != 10 {
		t.Fatalf("child rows = %d, want 10 (pre-filter)", node.Children[0].Rows)
	}
}

// TestInstrumentPreservesBatchPath checks the shim passes batches through
// unchanged and counts them.
func TestInstrumentPreservesBatchPath(t *testing.T) {
	s := testSchema("t")
	root, node := Instrument(NewValues(s, testRows(5)))
	if err := root.Open(&EvalContext{Now: testNow, BatchSize: 2}); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		cb, more, err := root.NextVec()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		rows += cb.NumActive()
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != 5 || node.Rows != 5 || node.Batches != 3 {
		t.Fatalf("rows=%d node.Rows=%d node.Batches=%d", rows, node.Rows, node.Batches)
	}
}

// TestInstrumentSwitchUnionGuard checks the guard decision lands in the
// trace and the rejected branch shows as not executed.
func TestInstrumentSwitchUnionGuard(t *testing.T) {
	s := testSchema("t")
	su := &SwitchUnion{
		Label:    "Customer",
		Region:   1,
		Children: []Operator{NewValues(s, testRows(2)), NewValues(s, testRows(5))},
		Selector: func(ctx *EvalContext) (int, time.Time) {
			return 0, ctx.Now.Add(-5 * time.Second)
		},
	}
	root, node := Instrument(su)
	res, err := Run(root, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	g := node.Guard
	if g == nil {
		t.Fatal("guard decision not captured")
	}
	if g.Chosen != 0 || g.Branch() != "local" || g.Region != 1 {
		t.Fatalf("guard = %+v", g)
	}
	if !g.StalenessKnown || g.Staleness != 5*time.Second {
		t.Fatalf("staleness = %+v", g)
	}
	if len(node.Children) != 2 {
		t.Fatalf("children = %d", len(node.Children))
	}
	if node.Children[0].Opens != 1 || node.Children[1].Opens != 0 {
		t.Fatalf("branch opens = %d/%d", node.Children[0].Opens, node.Children[1].Opens)
	}
	if shape := node.ShapeString(); !strings.Contains(shape, "(not executed)") {
		t.Fatalf("rejected branch must render as not executed:\n%s", shape)
	}
}

// TestInstrumentUnwrap checks tree walkers still find the SwitchUnion
// through the shim.
func TestInstrumentUnwrap(t *testing.T) {
	s := testSchema("t")
	su := &SwitchUnion{
		Children: []Operator{NewValues(s, testRows(1)), NewValues(s, testRows(1))},
		Selector: func(*EvalContext) (int, time.Time) { return 0, time.Time{} },
	}
	root, _ := Instrument(&Limit{Child: su, N: 1})
	sus := switchUnions(root)
	if len(sus) != 1 || sus[0] != su {
		t.Fatalf("switchUnions through Traced = %v", sus)
	}
}

// TestOnGuardHook checks the per-execution hook fires with the decision.
func TestOnGuardHook(t *testing.T) {
	s := testSchema("t")
	su := &SwitchUnion{
		Label:    "Orders",
		Region:   2,
		Children: []Operator{NewValues(s, testRows(1)), NewValues(s, testRows(3))},
		Selector: func(*EvalContext) (int, time.Time) { return 1, time.Time{} },
	}
	var got []GuardDecision
	c := ctx()
	c.OnGuard = func(d GuardDecision) { got = append(got, d) }
	if _, err := Run(su, c, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("hook fired %d times", len(got))
	}
	if got[0].Label != "Orders" || got[0].Region != 2 || got[0].Chosen != 1 {
		t.Fatalf("decision = %+v", got[0])
	}
	if got[0].StalenessKnown {
		t.Fatal("staleness must be unknown without a judged heartbeat")
	}
}
