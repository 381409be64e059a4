package obs

import (
	"strings"
	"testing"
	"time"
)

func traceFixture() *TraceNode {
	return &TraceNode{
		Name:  "SwitchUnion Customer",
		Opens: 1, Open: 2 * time.Millisecond, Next: time.Millisecond, Rows: 1,
		Guard: &GuardEvent{
			Label: "Customer", Region: 1, Chosen: 0,
			GuardTime: 40 * time.Microsecond, Staleness: 5 * time.Second, StalenessKnown: true,
		},
		Children: []*TraceNode{
			{Name: "IndexScan(cust_prj.pk)", Opens: 1, Rows: 1, Next: time.Millisecond},
			{Name: "Remote(SELECT ...)"},
		},
	}
}

func TestTraceRender(t *testing.T) {
	got := traceFixture().String()
	for _, want := range []string{
		"SwitchUnion Customer",
		"rows=1",
		"[guard 40µs -> local branch, region 1, staleness 5s]",
		"├─ IndexScan(cust_prj.pk)",
		"└─ Remote(SELECT ...)  (not executed)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q in:\n%s", want, got)
		}
	}
}

func TestTraceShapeDeterministic(t *testing.T) {
	n := traceFixture()
	got := n.ShapeString()
	want := "SwitchUnion Customer  rows=1 [guard -> local branch, region 1, staleness 5s]\n" +
		"├─ IndexScan(cust_prj.pk)  rows=1\n" +
		"└─ Remote(SELECT ...)  (not executed)\n"
	if got != want {
		t.Fatalf("shape:\n%s\nwant:\n%s", got, want)
	}
	// Shape output must not depend on wall time.
	n.Next *= 100
	if n.ShapeString() != want {
		t.Fatal("shape changed with timings")
	}
}

func TestGuardBranch(t *testing.T) {
	if (&GuardEvent{Chosen: 0}).Branch() != "local" {
		t.Fatal("chosen 0 must be local")
	}
	if (&GuardEvent{Chosen: 1}).Branch() != "remote" {
		t.Fatal("chosen 1 must be remote")
	}
}

func TestTraceTotalAndUnknownStaleness(t *testing.T) {
	n := &TraceNode{Opens: 1, Open: 1 * time.Millisecond, Next: 2 * time.Millisecond, Close: 3 * time.Millisecond}
	if n.Total() != 6*time.Millisecond {
		t.Fatalf("total = %v", n.Total())
	}
	g := &TraceNode{Name: "SwitchUnion X", Opens: 1, Guard: &GuardEvent{Chosen: 1}}
	if s := g.ShapeString(); !strings.Contains(s, "staleness unknown") {
		t.Fatalf("unknown staleness not rendered: %s", s)
	}
}
