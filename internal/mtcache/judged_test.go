package mtcache

import (
	"fmt"
	"testing"
	"time"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
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
// timestamp the guard checked. The heartbeat is published past the agent, so
// the word's version stands and the run is not repeated
// (TestAnApplyDuringTheRunRepeatsIt has the agent's write).
func TestSourcesAreTheHeartbeatTheGuardJudged(t *testing.T) {
	c, _, clock := newPair(t)
	addRegionAndView(t, c)
	aud := c.Audit()
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
		c.word(1).Heartbeat(judged.Add(3 * time.Second))
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

// TestAnApplyDuringTheRunRepeatsIt: a local branch that reads while its
// region's agent writes — here the agent's heartbeat, landing as the branch
// opens — moves the region's word, and the run is repeated. When the second
// run meets no write it answers locally as of its own judged heartbeat; when
// the word moves again, a third run answers from the remote branches. Either
// way only the run that answered reaches the ledger and the auditor, and each
// outcome has its counter.
func TestAnApplyDuringTheRunRepeatsIt(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes int // opens of the local branch that meet a write
		local  bool
	}{{"once", 1, true}, {"twice", 2, false}} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, clock := newPair(t)
			addRegionAndView(t, c)
			aud := c.Audit()
			c.SetLastSync(1, clock.Now())
			clock.Advance(5 * time.Second)
			sel, err := sqlparser.ParseSelect("SELECT id, v FROM t WHERE id = 2 CURRENCY 60 ON (t)")
			if err != nil {
				t.Fatal(err)
			}
			plan, _, err := c.Plan(sel, opt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			su := plan.Root.(*exec.Project).Child.(*exec.SwitchUnion)
			opens := 0
			last, _ := c.LastSync(1)
			su.Children[0] = &advancing{Operator: su.Children[0], open: func() {
				if opens++; opens <= tc.writes {
					last = last.Add(time.Second)
					c.SetLastSync(1, last)
				}
			}}
			s := c.NewSession()
			q := s.begin(sqlparser.SelectSQL(sel))
			res, err := s.run(q, plan, plan.Root, nil, 0, false, "")
			q.end(&err)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.LocalViews) == 1; got != tc.local || len(res.Rows) != 1 {
				t.Fatalf("local views %v, %d rows, %d remote queries; want local %v", res.LocalViews, len(res.Rows), res.RemoteQueries, tc.local)
			}
			if tc.local && !res.AsOf.Equal(last) {
				t.Errorf("AsOf %v, want the heartbeat the second run judged, %v", res.AsOf, last)
			}
			if !tc.local && res.RemoteQueries != 1 {
				t.Errorf("%d remote queries, want the remote branch", res.RemoteQueries)
			}
			reruns, remote := int64(1), int64(tc.writes-1)
			if c.obs.reruns.Value() != reruns || c.obs.rerunsRemote.Value() != remote {
				t.Errorf("reruns %d, answered remote %d; want %d, %d", c.obs.reruns.Value(), c.obs.rerunsRemote.Value(), reruns, remote)
			}
			if reads := aud.ReadsOf(q.ev.Query); len(reads) != 1 || (reads[0].Chosen == 0) != tc.local {
				t.Errorf("audited read events %+v; want the one decision of the run that answered", reads)
			}
			if p := c.Ledger().Snapshot(clock.Now()); len(p) != 1 || p[0].Queries != 1 || (p[0].Local == 1) != tc.local {
				t.Errorf("ledger profiles %+v; want the one decision of the run that answered", p)
			}
		})
	}
}

// TestAResultKeepsItsRows: a result's rows live in storage that result owns
// (the QueryResult's room, or the back end's reply to a shipped read), so
// neither the session's next query — local or shipped, of the same shape —
// nor a run repeated because its region's word moved (Session.run fills one
// result's storage again) changes the rows of a result already returned.
func TestAResultKeepsItsRows(t *testing.T) {
	c, _, clock := newPair(t)
	addRegionAndView(t, c)
	c.SetLastSync(1, clock.Now())
	clock.Advance(5 * time.Second)
	s := c.NewSession()
	var kept []*QueryResult
	var want []string
	check := func(when string) {
		t.Helper()
		for i, res := range kept {
			if got := fmt.Sprint(res.Rows); got != want[i] {
				t.Errorf("after %s: result %d holds %s, was %s", when, i, got, want[i])
			}
		}
	}
	keep := func(res *QueryResult, local bool, rows string) {
		t.Helper()
		if got := fmt.Sprint(res.Rows); got != rows || (len(res.LocalViews) == 1) != local {
			t.Fatalf("answer %s (local views %v), want %s served locally: %v", got, res.LocalViews, rows, local)
		}
		kept, want = append(kept, res), append(want, rows)
	}
	for _, q := range []struct {
		sql, rows string
		local     bool
	}{
		{"SELECT id, v FROM t WHERE id = 2 CURRENCY 60 ON (t)", "[(2, 'b')]", true},
		{"SELECT id, v FROM t WHERE id = 1 CURRENCY 60 ON (t)", "[(1, 'a')]", true},
		{"SELECT id, v, n FROM t WHERE id = 2", "[(2, 'b', 20)]", false},
		{"SELECT id, v, n FROM t WHERE id = 3", "[(3, 'c', 30)]", false},
	} {
		res, err := s.Query(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		check(q.sql)
		keep(res, q.local, q.rows)
	}

	// The agent's heartbeat lands as the local branch first opens: the
	// word moves and the run is repeated into the same result.
	sel, err := sqlparser.ParseSelect("SELECT id, v FROM t WHERE id = 3 CURRENCY 60 ON (t)")
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := c.Plan(sel, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	su := plan.Root.(*exec.Project).Child.(*exec.SwitchUnion)
	opens := 0
	su.Children[0] = &advancing{Operator: su.Children[0], open: func() {
		if opens++; opens == 1 {
			last, _ := c.LastSync(1)
			c.SetLastSync(1, last.Add(time.Second))
		}
	}}
	q := s.begin(sqlparser.SelectSQL(sel))
	res, err := s.run(q, plan, plan.Root, nil, 0, false, "")
	q.end(&err)
	if err != nil {
		t.Fatal(err)
	}
	if opens != 2 {
		t.Fatalf("the local branch opened %d times, want a repeated run", opens)
	}
	check("a repeated run")
	keep(res, true, "[(3, 'c')]")
}
