package mtcache

import (
	"testing"
	"time"

	"relaxedcc/internal/audit"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqlparser"
)

// advancing is a local branch that moves its region's heartbeat forward as
// it opens: replication landing between the guard's check and the end of
// the run.
type advancing struct {
	exec.Operator
	open func()
}

func (a *advancing) Open(ctx *exec.EvalContext) error {
	a.open()
	return a.Operator.Open(ctx)
}

// TestSourcesAreTheHeartbeatTheGuardJudged: what a result and the auditor
// say the answer is as of is the heartbeat the guard judged, not one read
// after the decision. A timeline session's guarded read whose local branch
// advances the region's heartbeat while it opens reports, in the audited
// read event's SyncTSNS, in QueryResult.AsOf and in the session's floor, the
// timestamp the guard checked.
func TestSourcesAreTheHeartbeatTheGuardJudged(t *testing.T) {
	c, _, clock := newPair(t)
	addRegionAndView(t, c)
	aud := audit.New(obs.NewRegistry())
	c.EnableAudit(aud)
	c.SetLastSync(1, clock.Now())
	clock.Advance(5 * time.Second)
	judged, _ := c.LastSync(1)

	s := c.NewSession()
	if _, err := s.Execute("BEGIN TIMEORDERED"); err != nil {
		t.Fatal(err)
	}
	sel, err := sqlparser.ParseSelect("SELECT id, v FROM t WHERE id = 2 CURRENCY 60 ON (t)")
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := c.Plan(sel, s.planOptions())
	if err != nil {
		t.Fatal(err)
	}
	var su *exec.SwitchUnion
	if prj, ok := plan.Root.(*exec.Project); ok {
		su, _ = prj.Child.(*exec.SwitchUnion)
	}
	if su == nil {
		t.Fatalf("want the guard under the projection, plan is %s", plan.Shape)
	}
	su.Children[0] = &advancing{Operator: su.Children[0], open: func() {
		c.SetLastSync(1, judged.Add(3*time.Second))
	}}

	q := s.begin(sqlparser.SelectSQL(sel))
	res, err := s.run(q, plan, plan.Root, nil, 0, false, "")
	q.end(&err)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalViews) != 1 || len(res.Rows) != 1 {
		t.Fatalf("local views %v, %d rows; want the guarded local read of one row", res.LocalViews, len(res.Rows))
	}
	if now, _ := c.LastSync(1); !now.After(judged) {
		t.Fatalf("the local branch did not advance the heartbeat past %v", judged)
	}
	reads := aud.ReadsOf(q.ev.Query)
	if len(reads) != 1 || reads[0].SyncTSNS != judged.UnixNano() {
		t.Errorf("audited read events %+v; want one with SyncTSNS %d", reads, judged.UnixNano())
	}
	if !res.AsOf.Equal(judged) {
		t.Errorf("AsOf %v, want the judged heartbeat %v", res.AsOf, judged)
	}
	if f := s.Floor(); !f.Equal(judged) {
		t.Errorf("session floor %v, want the judged heartbeat %v", f, judged)
	}
}
