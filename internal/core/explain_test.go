package core_test

import (
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/tpcd"
)

const remoteChild = "Remote(SELECT Customer.c_custkey, Customer.c_name, Customer.c_acctbal " +
	"FROM Customer WHERE (Customer.c_custkey = 42))"

// TestExplainAnalyzeGuardedLocal is the golden-output test for EXPLAIN
// ANALYZE on a currency-guarded point query whose guard accepts the local
// branch. The shape rendering is deterministic under the virtual clock:
// node names, row counts, the chosen branch and the staleness observed at
// decision time.
func TestExplainAnalyzeGuardedLocal(t *testing.T) {
	sys := newSystem(t)
	res, err := sys.ExplainAnalyze(tpcd.PointQuery(42, "CURRENCY 3600 ON (Customer)"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE returned no trace")
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	want := "Project  rows=1\n" +
		"└─ SwitchUnion Guard(cust_prj|Remote(Customer))  rows=1 [guard -> local branch, region 1, staleness 6s]\n" +
		"   ├─ Project  rows=1\n" +
		"   │  └─ IndexScan(cust_prj.pk_cust_prj)  rows=1\n" +
		"   └─ " + remoteChild + "  (not executed)\n"
	if got := res.Trace.ShapeString(); got != want {
		t.Fatalf("trace shape:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzeRemoteFallback forces the guard down the remote branch:
// the same cached guarded plan re-executed after the region ages past the
// bound (no replication steps run) must show the remote child executed and
// the local branch skipped.
func TestExplainAnalyzeRemoteFallback(t *testing.T) {
	sys := newSystem(t)
	q := tpcd.PointQuery(42, "CURRENCY 15 ON (Customer)")
	first, err := sys.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if g := first.Trace.Children[0].Guard; g == nil || g.Chosen != 0 {
		t.Fatalf("fresh run should take the local branch: %+v", g)
	}
	// Let the region age past the bound with no replication steps.
	sys.Clock.Advance(60 * time.Second)
	second, err := sys.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	want := "Project  rows=1\n" +
		"└─ SwitchUnion Guard(cust_prj|Remote(Customer))  rows=1 [guard -> remote branch, region 1, staleness 1m6s]\n" +
		"   ├─ Project  (not executed)\n" +
		"   │  └─ IndexScan(cust_prj.pk_cust_prj)  (not executed)\n" +
		"   └─ " + remoteChild + "  rows=1\n"
	if got := second.Trace.ShapeString(); got != want {
		t.Fatalf("trace shape:\n%s\nwant:\n%s", got, want)
	}
	if second.RemoteQueries == 0 {
		t.Fatal("fallback run must have gone remote")
	}
}

// TestExplainStatementForms checks the statement-level plumbing: EXPLAIN
// returns the plan without executing, EXPLAIN ANALYZE executes and traces.
func TestExplainStatementForms(t *testing.T) {
	sys := newSystem(t)
	sess := sys.Cache.NewSession()

	plain, err := sess.Execute("EXPLAIN " + tpcd.PointQuery(42, "CURRENCY 3600 ON (Customer)"))
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Explained || plain.Plan == nil || plain.Trace != nil || len(plain.Rows) != 0 {
		t.Fatalf("EXPLAIN result = explained=%v plan=%v trace=%v rows=%d",
			plain.Explained, plain.Plan != nil, plain.Trace != nil, len(plain.Rows))
	}

	analyzed, err := sess.Execute("EXPLAIN ANALYZE " + tpcd.PointQuery(42, "CURRENCY 3600 ON (Customer)"))
	if err != nil {
		t.Fatal(err)
	}
	if analyzed.Trace == nil || len(analyzed.Rows) != 1 {
		t.Fatalf("EXPLAIN ANALYZE result = trace=%v rows=%d", analyzed.Trace != nil, len(analyzed.Rows))
	}
	// The query's record keeps a copy of the trace (an analyzed query is
	// always sampled), and the plain EXPLAIN before it left none.
	var traced []obs.QueryRecord
	for _, rec := range sys.Cache.Tracer().Recent() {
		if rec.Trace != nil {
			traced = append(traced, rec)
		}
	}
	if len(traced) != 1 || traced[0].Trace == analyzed.Trace ||
		traced[0].Trace.ShapeString() != analyzed.Trace.ShapeString() || !strings.Contains(traced[0].SQL, "c_custkey = 42") {
		t.Fatalf("records with a trace: %+v", traced)
	}
}
