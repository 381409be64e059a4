package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"relaxedcc/internal/audit"
	"relaxedcc/internal/catalog"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// auditSystem builds the chaos fixture.
func auditSystem(t *testing.T) (*System, *fault.Injector) {
	t.Helper()
	sys := NewSystem()
	sys.MustExec("CREATE TABLE T (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)")
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R",
		UpdateInterval:    10 * time.Second,
		UpdateDelay:       2 * time.Second,
		HeartbeatInterval: 1 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateView(&catalog.View{
		Name: "t_prj", BaseTable: "T", Columns: []string{"id", "v"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Backend.LoadRows("T", []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	sys.Analyze()
	inj := fault.New(7)
	sys.InjectFaults(inj)
	if err := sys.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}
	return sys, inj
}

// TestAuditEndToEndHonestRun: an honestly operated system audits clean —
// local and remote serves both classify OK, nothing silent is flagged, and
// the offline replay of the recorded rings reproduces the online ledger.
func TestAuditEndToEndHonestRun(t *testing.T) {
	sys, _ := auditSystem(t)
	// Local serve: a 1-hour bound is looser than any replication staleness.
	res, err := sys.Query("SELECT v FROM T WHERE id = 1 CURRENCY 3600 S ON (T)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalViews) == 0 {
		t.Fatalf("loose bound went remote: %s", res.Plan.Shape)
	}
	// A 5s bound keeps the runtime guard in the plan; whichever branch it
	// picks, the decision is a checked read.
	if _, err := sys.Query(guardedQuery); err != nil {
		t.Fatal(err)
	}
	// A query with no currency clause (or a bound the optimizer decides
	// statically, like 1ms < the 2s apply delay) plans without a runtime
	// guard — no guard fires, so nothing reaches the auditor.
	if _, err := sys.Query("SELECT v FROM T WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query("SELECT v FROM T WHERE id = 1 CURRENCY 1 MS ON (T)"); err != nil {
		t.Fatal(err)
	}

	s := sys.Audit().Summary()
	if s.ReadsChecked != 2 || s.OK != 2 {
		t.Fatalf("tally = %+v", s.Tally)
	}
	if s.ViolationsTotal != 0 || len(s.RecentViolations) != 0 {
		t.Fatalf("honest run flagged: %+v", s.RecentViolations)
	}
	if s.Commits == 0 {
		t.Fatal("no commit history read from the log")
	}
	replay := sys.Audit().Replay()
	if replay.Tally != s.Tally {
		t.Fatalf("offline replay %+v != online %+v", replay.Tally, s.Tally)
	}
}

// TestAuditCatchesGuardLie: wedge replication while forging the heartbeat
// fresh — the guard keeps approving local serves, and the auditor must flag
// them with evidence from the real history.
func TestAuditCatchesGuardLie(t *testing.T) {
	sys, inj := auditSystem(t)
	agent := sys.Cache.Agent(1)
	syncedThrough := storage.Seq(agent.Word().Load())

	// Hard-wedge the agent (the stall survives watchdog restarts), then write
	// fresh master data the region will never see.
	inj.SetStallSurvivesRestart(true)
	inj.StallAgent(1, true)
	for i := 0; i < 3; i++ {
		sys.MustExec("UPDATE T SET v = 99 WHERE id = 1")
		if err := sys.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Forge the heartbeat so a 5s bound sees staleness ~0 and serves local.
	sys.Cache.SetLastSync(1, sys.Clock.Now())
	res, err := sys.Query("SELECT v FROM T WHERE id = 1 CURRENCY 5 S ON (T)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalViews) == 0 {
		t.Fatal("lie did not take: query went remote")
	}

	s := sys.Audit().Summary()
	if s.CurrencyViolations == 0 || len(s.RecentViolations) == 0 {
		t.Fatalf("lie not caught: %+v", s.Tally)
	}
	v := s.RecentViolations[len(s.RecentViolations)-1]
	if v.Class != audit.ClassViolationCurrency || v.Object != "T" || v.Region != 1 {
		t.Fatalf("evidence = %+v", v)
	}
	if v.BoundNS != int64(5*time.Second) || v.DeliveredNS <= v.BoundNS ||
		v.ExcessNS != v.DeliveredNS-v.BoundNS {
		t.Fatalf("bound/delivered/excess = %d/%d/%d", v.BoundNS, v.DeliveredNS, v.ExcessNS)
	}
	if v.SyncSeq != syncedThrough || v.StaleSeq <= syncedThrough {
		t.Fatalf("sync/stale seq = %d/%d (synced through %d)", v.SyncSeq, v.StaleSeq, syncedThrough)
	}
	// The guard believed the forged ~0 staleness; the gap is the lie.
	if v.GuardStalenessNS >= v.DeliveredNS {
		t.Fatalf("guard staleness %d not smaller than delivered %d", v.GuardStalenessNS, v.DeliveredNS)
	}
}

// TestAuditDisclosedServesAreNotViolations: a degraded serve-local answer
// breaks the promise but tells the client, so it ledgers as disclosed.
func TestAuditDisclosedServesAreNotViolations(t *testing.T) {
	sys, inj := auditSystem(t)
	driftPastBound(t, sys, 5*time.Second)
	// Honest staleness now exceeds the 5s bound; the remote fall-back is
	// partitioned away, so ActionServeLocal degrades with a warning.
	inj.SetPartitioned(true)
	sess := sys.Cache.NewSession()
	sess.Action = mtcache.ActionServeLocal
	res, err := sess.Query("SELECT v FROM T WHERE id = 1 CURRENCY 5 S ON (T)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("expected a degraded serve")
	}
	s := sys.Audit().Summary()
	if s.Disclosed == 0 || s.ViolationsTotal != 0 {
		t.Fatalf("degraded serve misclassified: %+v", s.Tally)
	}
}

// auditSummaryKeys is the golden /audit schema; adding or renaming payload
// fields must update this list consciously.
var auditSummaryKeys = []string{
	"reads_checked", "ok", "currency_violations",
	"consistency_violations", "disclosed", "unbounded", "unchecked",
	"violations_total", "recent_violations",
	"commits", "applies", "dropped_reads", "dropped_applies",
}

var auditViolationKeys = []string{
	"query", "class", "region", "object", "label", "bound_ns", "delivered_ns",
	"excess_ns", "sync_seq", "stale_seq", "stale_at_ns", "serve_ts_ns",
	"guard_staleness_ns", "repl_lag_ns",
}

// TestAuditHTTPGoldenSchema pins the /audit payload shape end to end,
// violations included.
func TestAuditHTTPGoldenSchema(t *testing.T) {
	sys, inj := auditSystem(t)
	// Manufacture one violation so recent_violations is non-empty.
	inj.SetStallSurvivesRestart(true)
	inj.StallAgent(1, true)
	sys.MustExec("UPDATE T SET v = 2 WHERE id = 1")
	if err := sys.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Cache.SetLastSync(1, sys.Clock.Now())
	if _, err := sys.Query("SELECT v FROM T WHERE id = 1 CURRENCY 5 S ON (T)"); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	sys.ObsHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/audit", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /audit = %d: %s", rr.Code, rr.Body.String())
	}
	var v map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if len(v) != len(auditSummaryKeys) {
		t.Fatalf("payload has %d keys, want %d: %v", len(v), len(auditSummaryKeys), v)
	}
	for _, k := range auditSummaryKeys {
		if _, ok := v[k]; !ok {
			t.Fatalf("missing key %q", k)
		}
	}
	viols := v["recent_violations"].([]any)
	if len(viols) == 0 {
		t.Fatal("no violation in payload")
	}
	violation := viols[0].(map[string]any)
	for _, k := range auditViolationKeys {
		if _, ok := violation[k]; !ok {
			t.Fatalf("violation missing key %q in %v", k, violation)
		}
	}
	if violation["class"] != "currency" || violation["object"] != "T" {
		t.Fatalf("violation evidence = %v", violation)
	}
}

// TestEverySystemServesAudit: the auditor is part of every cache, so /audit
// answers on a plain system before any read, with an empty ledger.
func TestEverySystemServesAudit(t *testing.T) {
	sys := NewSystem()
	sys.MustExec("CREATE TABLE T (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)")
	rr := httptest.NewRecorder()
	sys.ObsHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/audit", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /audit = %d, want 200", rr.Code)
	}
	var s audit.Summary
	if err := json.Unmarshal(rr.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.ReadsChecked != 0 || s.RecentViolations == nil {
		t.Fatalf("fresh ledger = %+v", s)
	}
}
