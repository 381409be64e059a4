package mtcache_test

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/tpcd"
)

// spineStep is what one statement of the spine scenario did to the sinks
// every query feeds — the guard metrics, the SLO windows and the workload
// window — plus the guard events it published, as the trace reports them.
type spineStep struct {
	name                                string
	local, remote, degraded, blockWaits int64
	slo                                 obs.SLOSnapshot
	workload                            []obs.WorkloadProfile
	events                              []obs.GuardEvent
	id                                  uint64
}

// executedGuards collects the guard events of an EXPLAIN ANALYZE trace in the
// order their guards published them: a guard publishes when its Open returns,
// so an inner guard comes before the guard around it (post-order).
func executedGuards(n *obs.TraceNode, out []obs.GuardEvent) []obs.GuardEvent {
	for _, c := range n.Children {
		out = executedGuards(c, out)
	}
	if n.Guard != nil && n.Opens > 0 {
		out = append(out, *n.Guard)
	}
	return out
}

// runSpine drives the five statements of the spine scenario on a fresh
// system — a guarded local read, the two-guard Q5, the same read forced
// remote, degraded to the local view under a partition (ActionServeLocal),
// and blocked until replication catches up (ActionBlock) — each through
// EXPLAIN ANALYZE, and returns what each did. every is the tracer's sampling
// period.
func runSpine(t *testing.T, every int) (*core.System, []spineStep) {
	t.Helper()
	sys, err := harness.NewSystem(harness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Cache.TraceEvery(every)
	inj := fault.New(7)
	sys.InjectFaults(inj)
	// The tracer always samples its first query: spend it, in both runs.
	if _, err := sys.Query("SELECT COUNT(*) FROM Customer"); err != nil {
		t.Fatal(err)
	}

	read := tpcd.RangeQuery(0, 1000, "CURRENCY 60 ON (Customer)")
	var q5 string
	for _, c := range harness.PlanChoiceCases() {
		if c.Name == "Q5" {
			q5 = c.SQL
		}
	}
	counter := func(snap obs.Snapshot, name string) (n int64) {
		for k, v := range snap.Counters {
			if k == name || strings.HasPrefix(k, name+"{") {
				n += v
			}
		}
		return n
	}
	var steps []spineStep
	for _, st := range []struct {
		name   string
		sql    string
		action mtcache.ViolationAction
		before func()
	}{
		{"local", read, mtcache.ActionError, nil},
		{"two guards", q5, mtcache.ActionError, nil},
		// Two minutes pass with replication standing still: the guard now
		// rejects the local branch.
		{"remote", read, mtcache.ActionError, func() { sys.Clock.Advance(2 * time.Minute) }},
		{"degraded", read, mtcache.ActionServeLocal, func() {
			sys.Clock.Advance(2 * time.Minute)
			inj.SetPartitioned(true)
		}},
		{"blocked", read, mtcache.ActionBlock, func() {
			inj.SetPartitioned(false)
			sys.Clock.Advance(2 * time.Minute)
		}},
	} {
		if st.before != nil {
			st.before()
		}
		sess := sys.Cache.NewSession()
		sess.Action = st.action
		before := sys.Cache.Obs().Snapshot()
		res, err := sess.ExplainAnalyze(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		after := sys.Cache.Obs().Snapshot()
		delta := func(name string) int64 { return counter(after, name) - counter(before, name) }
		step := spineStep{
			name:       st.name,
			local:      delta("guard_local_total"),
			remote:     delta("guard_remote_total"),
			degraded:   delta("degraded_reads_total"),
			blockWaits: delta("guard_block_waits_total"),
			slo:        sys.Cache.Ledger().SLO(),
			workload:   sys.Cache.Ledger().Snapshot(sys.Clock.Now()),
			events:     executedGuards(res.Trace, nil),
		}
		if len(step.events) > 0 {
			step.id = step.events[0].Query
		}
		steps = append(steps, step)
	}
	return sys, steps
}

// TestGuardEventReachesEverySinkOnce: one guard decision is one struct, built
// by SwitchUnion.Open and read as it is by every consumer. With every query
// sampled, the metrics, the SLO windows, the workload window, the lifecycle
// record's guards, the EXPLAIN ANALYZE trace and the auditor's read group of
// each statement describe the same events — equal structs under one query id
// — and each exactly once. The same statements with the tracer not sampling
// move the metrics, SLO and workload numbers identically: sampling changes
// nothing else.
func TestGuardEventReachesEverySinkOnce(t *testing.T) {
	sys, steps := runSpine(t, 1)
	// What each statement's guards must look like.
	want := map[string]struct {
		guards, local, degraded int
		waits                   bool
	}{
		"local":      {guards: 1, local: 1},
		"two guards": {guards: 2, local: 2},
		"remote":     {guards: 1},
		"degraded":   {guards: 1, local: 1, degraded: 1},
		"blocked":    {guards: 1, local: 1, waits: true},
	}
	sloObs := map[int]int{}
	wlQueries := map[int]int64{}
	recs := sys.Cache.Tracer().Recent()
	for _, st := range steps {
		w := want[st.name]
		if len(st.events) != w.guards {
			t.Fatalf("%s: %d guard events in the trace, want %d: %+v", st.name, len(st.events), w.guards, st.events)
		}
		var local, degraded, waits int
		for _, ev := range st.events {
			if ev.Query != st.id || ev.Query == 0 {
				t.Errorf("%s: event of query %d among those of query %d", st.name, ev.Query, st.id)
			}
			if ev.Chosen == 0 {
				local++
			}
			if ev.Degraded {
				degraded++
			}
			waits += ev.BlockWaits
			sloObs[ev.Region]++
			wlQueries[ev.Region]++
		}
		if local != w.local || degraded != w.degraded || (waits > 0) != w.waits {
			t.Errorf("%s: events %+v: %d local, %d degraded, %d waits", st.name, st.events, local, degraded, waits)
		}
		// Metrics: each event counted once.
		if st.local != int64(local) || st.remote != int64(len(st.events)-local) ||
			st.degraded != int64(degraded) || st.blockWaits != int64(waits) {
			t.Errorf("%s: metric deltas local/remote/degraded/waits = %d/%d/%d/%d for events %+v",
				st.name, st.local, st.remote, st.degraded, st.blockWaits, st.events)
		}
		// SLO and workload windows: one observation per event so far.
		for _, r := range st.slo.Regions {
			if r.Observations != sloObs[r.Region] {
				t.Errorf("%s: SLO region %d has %d observations, want %d", st.name, r.Region, r.Observations, sloObs[r.Region])
			}
		}
		for _, p := range st.workload {
			if p.Queries != wlQueries[p.Region] {
				t.Errorf("%s: workload region %d has %d queries, want %d", st.name, p.Region, p.Queries, wlQueries[p.Region])
			}
		}
		// The lifecycle record and the auditor's read group carry the very
		// same structs.
		var rec *obs.QueryRecord
		for i := range recs {
			if recs[i].QueryID == st.id {
				rec = &recs[i]
			}
		}
		if rec == nil || !reflect.DeepEqual(rec.Guards, st.events) {
			t.Errorf("%s: record %+v does not carry the events %+v", st.name, rec, st.events)
		}
		var audited []obs.GuardEvent
		for _, ev := range sys.Audit().ReadsOf(st.id) {
			audited = append(audited, ev.GuardEvent)
		}
		if !reflect.DeepEqual(audited, st.events) {
			t.Errorf("%s: auditor recorded %+v, want %+v", st.name, audited, st.events)
		}
	}

	// Unsampled, the always-on sinks read the same.
	_, plain := runSpine(t, 1<<30)
	for i, st := range steps {
		p := plain[i]
		if p.local != st.local || p.remote != st.remote || p.degraded != st.degraded || p.blockWaits != st.blockWaits ||
			!reflect.DeepEqual(p.slo, st.slo) || !reflect.DeepEqual(p.workload, st.workload) {
			t.Errorf("%s: sampling moved the always-on sinks:\nwith    %+v\nwithout %+v", st.name, st, p)
		}
	}
}

// TestViolationAndRecordShareTheQueryID: a serve the auditor flags is found
// in /queries/recent and in /audit's recent_violations under one id — the
// tracer's, which the guard event carried to both.
func TestViolationAndRecordShareTheQueryID(t *testing.T) {
	var sys *core.System
	cfg := harness.BrokenGuardChaosConfig()
	cfg.OnSystem = func(s *core.System) {
		s.Cache.TraceEvery(1)
		sys = s
	}
	if _, err := harness.RunChaos(cfg); err != nil {
		t.Fatal(err)
	}
	get := func(url string, into any) {
		rr := httptest.NewRecorder()
		sys.ObsHandler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if err := json.Unmarshal(rr.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: %v\n%s", url, err, rr.Body.String())
		}
	}
	var audit struct {
		Recent []struct {
			Query            uint64 `json:"query"`
			BoundNS          int64  `json:"bound_ns"`
			GuardStalenessNS int64  `json:"guard_staleness_ns"`
		} `json:"recent_violations"`
	}
	var recent struct {
		Queries []obs.QueryRecord `json:"queries"`
	}
	get("/audit", &audit)
	get("/queries/recent?limit=1000", &recent)
	if len(audit.Recent) == 0 {
		t.Fatal("the broken guard produced no violations")
	}
	for _, v := range audit.Recent {
		found := false
		for _, rec := range recent.Queries {
			if rec.QueryID != v.Query {
				continue
			}
			found = true
			if len(rec.Guards) != 1 || int64(rec.Guards[0].Bound) != v.BoundNS ||
				int64(rec.Guards[0].Staleness) != v.GuardStalenessNS || rec.Guards[0].Chosen != 0 {
				t.Errorf("violation %+v and record %+v disagree on the guard", v, rec)
			}
		}
		if !found {
			t.Errorf("violation of query %d has no record in /queries/recent", v.Query)
		}
	}
}

// TestOneSessionTwoGoroutines: a Session is safe to share. Two goroutines
// query through one session inside a TIMEORDERED bracket while replication
// runs: the session's query context is checked out by one of them at a time
// (the other allocates its own), every answer is right, and the timeline
// floor never moves backwards. Meaningful under -race.
func TestOneSessionTwoGoroutines(t *testing.T) {
	sys := core.NewSystem()
	sys.MustExec("CREATE TABLE acct (id BIGINT NOT NULL PRIMARY KEY, bal BIGINT NOT NULL)")
	for i := 1; i <= 20; i++ {
		sys.MustExec("INSERT INTO acct VALUES (" + strconv.Itoa(i) + ", " + strconv.Itoa(100*i) + ")")
	}
	if err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R", UpdateInterval: 2 * time.Second, UpdateDelay: 500 * time.Millisecond,
		HeartbeatInterval: 500 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateView(&catalog.View{
		Name: "acct_prj", BaseTable: "acct", Columns: []string{"id", "bal"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	sess := sys.Cache.NewSession()
	if _, err := sess.Execute("BEGIN TIMEORDERED"); err != nil {
		t.Fatal(err)
	}

	stop, driverDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(driverDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sys.Run(100 * time.Millisecond); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var floor time.Time
			for i := 0; i < 300; i++ {
				id := 1 + (i*7+g)%20
				res, err := sess.Query("SELECT bal FROM acct WHERE id = " + strconv.Itoa(id) + " CURRENCY 60 ON (acct)")
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(100*id) {
					t.Errorf("goroutine %d: id %d answered %v", g, id, res.Rows)
					return
				}
				if f := sess.Floor(); f.Before(floor) {
					t.Errorf("goroutine %d: floor moved back from %s to %s", g, floor, f)
					return
				} else {
					floor = f
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-driverDone
	if sess.Floor().IsZero() {
		t.Error("no query raised the timeline floor")
	}
}
