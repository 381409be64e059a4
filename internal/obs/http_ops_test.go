package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// opsFixture builds a handler with one sampled slow query, one fast query,
// an SLO window, and a static region source.
func opsFixture() (Ops, *Tracer) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1, 64)
	ledger := NewRegionLedger(reg, time.Time{})
	ledger.Reconfigure(0.99, 32)

	fast := begin(tr, "SELECT fast")
	fast.Parse(1 * time.Millisecond)
	fast.Exec(2 * time.Millisecond)
	fast.Finish(false)
	slow := begin(tr, "SELECT slow")
	slow.Parse(2 * time.Millisecond)
	slow.Plan(3 * time.Millisecond)
	slow.Exec(95 * time.Millisecond)
	slow.Guard(GuardEvent{Region: 1, Chosen: 0, Bound: 5 * time.Second,
		Staleness: time.Second, StalenessKnown: true})
	slow.Finish(false)

	ledger.Observe(GuardEvent{Region: 1, Chosen: 0, Bound: 5 * time.Second,
		Staleness: time.Second, StalenessKnown: true})
	ledger.Observe(GuardEvent{Region: 1, Chosen: 0, Bound: 5 * time.Second,
		Staleness: 2 * time.Second, StalenessKnown: true, Degraded: true})

	return Ops{
		Registry: reg, Traces: &TraceStore{}, Tracer: tr, Ledger: ledger,
		Regions: func() []RegionStatus {
			return []RegionStatus{{
				ID: 1, Name: "CR1",
				UpdateIntervalNS:    int64(10 * time.Second),
				UpdateDelayNS:       int64(2 * time.Second),
				HeartbeatIntervalNS: int64(time.Second),
				StalenessNS:         int64(1500 * time.Millisecond),
				Synced:              true,
				TxnsApplied:         42,
			}}
		},
	}, tr
}

func getJSON(t *testing.T, o Ops, url string) map[string]any {
	t.Helper()
	rr := httptest.NewRecorder()
	NewHandler(o).ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
	if rr.Code != 200 {
		t.Fatalf("GET %s = %d: %s", url, rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s content type = %q", url, ct)
	}
	var v map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rr.Body.String())
	}
	return v
}

// requireKeys asserts the JSON object exposes exactly the schema's keys —
// the golden-schema check that catches silent payload drift.
func requireKeys(t *testing.T, obj map[string]any, want ...string) {
	t.Helper()
	if len(obj) != len(want) {
		t.Fatalf("object has %d keys %v, want %v", len(obj), keysOf(obj), want)
	}
	for _, k := range want {
		if _, ok := obj[k]; !ok {
			t.Fatalf("missing key %q in %v", k, keysOf(obj))
		}
	}
}

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

var queryRecordKeys = []string{
	"seq", "query_id", "sql_hash", "sql", "guards", "bound_ns", "region", "branch", "degraded",
	"block_waits", "retries", "staleness_ns", "staleness_known", "failed",
	"parse_ns", "plan_ns", "guard_ns", "exec_ns", "total_ns",
}

func TestOpsQueriesRecentSchema(t *testing.T) {
	o, _ := opsFixture()
	v := getJSON(t, o, "/queries/recent")
	requireKeys(t, v, "sample_every", "queries")
	if v["sample_every"].(float64) != 1 {
		t.Fatalf("sample_every = %v", v["sample_every"])
	}
	qs := v["queries"].([]any)
	if len(qs) != 2 {
		t.Fatalf("got %d records, want 2", len(qs))
	}
	first := qs[0].(map[string]any)
	requireKeys(t, first, queryRecordKeys...)
	if first["sql"] != "SELECT slow" {
		t.Fatalf("newest-first violated: first = %v", first["sql"])
	}
	if first["total_ns"].(float64) != float64(100*time.Millisecond) {
		t.Fatalf("total_ns = %v", first["total_ns"])
	}
	// limit is honored.
	v = getJSON(t, o, "/queries/recent?limit=1")
	if qs := v["queries"].([]any); len(qs) != 1 {
		t.Fatalf("limit=1 returned %d records", len(qs))
	}
}

func TestOpsQueriesSlowSchema(t *testing.T) {
	o, _ := opsFixture()
	v := getJSON(t, o, "/queries/slow?threshold=50ms")
	requireKeys(t, v, "threshold_ns", "queries")
	if v["threshold_ns"].(float64) != float64(50*time.Millisecond) {
		t.Fatalf("threshold_ns = %v", v["threshold_ns"])
	}
	qs := v["queries"].([]any)
	if len(qs) != 1 {
		t.Fatalf("got %d slow records, want 1", len(qs))
	}
	rec := qs[0].(map[string]any)
	requireKeys(t, rec, queryRecordKeys...)
	if rec["sql"] != "SELECT slow" || rec["branch"] != "local" {
		t.Fatalf("slow record wrong: %v", rec)
	}
	// No threshold: both, slowest first.
	v = getJSON(t, o, "/queries/slow")
	qs = v["queries"].([]any)
	if len(qs) != 2 || qs[0].(map[string]any)["sql"] != "SELECT slow" {
		t.Fatalf("unfiltered slow list wrong: %v", qs)
	}
}

// TestOpsQueriesSlowBadThreshold: an unparsable or negative threshold is a
// 400 with a machine-readable JSON error naming the bad value, not a silent
// fall-back to zero.
func TestOpsQueriesSlowBadThreshold(t *testing.T) {
	o, _ := opsFixture()
	h := NewHandler(o)
	for _, bad := range []string{"nope", "-5ms", "10", "1h2x"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/queries/slow?threshold="+bad, nil))
		if rr.Code != 400 {
			t.Fatalf("threshold=%q = %d, want 400", bad, rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("threshold=%q content type = %q", bad, ct)
		}
		var body map[string]string
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("threshold=%q: bad JSON error: %v\n%s", bad, err, rr.Body.String())
		}
		if !strings.Contains(body["error"], bad) {
			t.Fatalf("threshold=%q error does not name the value: %q", bad, body["error"])
		}
	}
	// An empty threshold stays the unfiltered default, not an error.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/queries/slow?threshold=", nil))
	if rr.Code != 200 {
		t.Fatalf("empty threshold = %d, want 200", rr.Code)
	}
}

// TestOpsAuditEndpoint: /audit serves whatever the Audit closure yields as
// JSON, and 404s when the closure is missing or yields nil (auditor not
// enabled) — the same late-binding contract as /tuner.
func TestOpsAuditEndpoint(t *testing.T) {
	o, _ := opsFixture()
	o.Audit = func() any {
		return map[string]any{"enabled": true, "reads_checked": 7}
	}
	v := getJSON(t, o, "/audit")
	requireKeys(t, v, "enabled", "reads_checked")
	if v["reads_checked"].(float64) != 7 {
		t.Fatalf("payload = %v", v)
	}
	for _, o := range []Ops{{Registry: NewRegistry()},
		{Registry: NewRegistry(), Audit: func() any { return nil }}} {
		rr := httptest.NewRecorder()
		NewHandler(o).ServeHTTP(rr, httptest.NewRequest("GET", "/audit", nil))
		if rr.Code != 404 {
			t.Fatalf("GET /audit without auditor = %d, want 404", rr.Code)
		}
	}
}

func TestOpsSLOSchema(t *testing.T) {
	o, _ := opsFixture()
	refreshed := 0
	o.Refresh = func() { refreshed++ }
	v := getJSON(t, o, "/slo")
	requireKeys(t, v, "target", "window", "regions")
	if refreshed != 1 {
		t.Fatalf("refresh ran %d times", refreshed)
	}
	if v["target"].(float64) != 0.99 || v["window"].(float64) != 32 {
		t.Fatalf("target/window = %v/%v", v["target"], v["window"])
	}
	regions := v["regions"].([]any)
	if len(regions) != 1 {
		t.Fatalf("regions = %v", regions)
	}
	r := regions[0].(map[string]any)
	requireKeys(t, r, "region", "observations", "within", "degraded",
		"within_ratio", "error_budget",
		"staleness_p50_ns", "staleness_p95_ns", "staleness_p99_ns", "staleness_max_ns")
	if r["observations"].(float64) != 2 || r["within"].(float64) != 1 || r["degraded"].(float64) != 1 {
		t.Fatalf("slo counts wrong: %v", r)
	}
	if r["within_ratio"].(float64) != 0.5 {
		t.Fatalf("within_ratio = %v", r["within_ratio"])
	}
}

func TestOpsRegionsSchema(t *testing.T) {
	o, _ := opsFixture()
	v := getJSON(t, o, "/regions")
	requireKeys(t, v, "regions")
	regions := v["regions"].([]any)
	if len(regions) != 1 {
		t.Fatalf("regions = %v", regions)
	}
	r := regions[0].(map[string]any)
	requireKeys(t, r, "id", "name", "update_interval_ns", "update_delay_ns",
		"heartbeat_interval_ns", "staleness_ns", "synced", "txns_applied")
	if r["name"] != "CR1" || r["synced"] != true || r["txns_applied"].(float64) != 42 {
		t.Fatalf("region row wrong: %v", r)
	}
}

// TestOpsEndpointsDisabled: a partially wired Ops (no tracer/SLO/regions/
// tuner) serves 404s on the missing surfaces instead of panicking.
func TestOpsEndpointsDisabled(t *testing.T) {
	h := NewHandler(Ops{Registry: NewRegistry()})
	for _, url := range []string{"/queries/recent", "/queries/slow", "/slo", "/regions", "/tuner", "/audit"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != 404 {
			t.Fatalf("GET %s = %d, want 404", url, rr.Code)
		}
	}
}

// TestOpsTunerNilSnapshot: a wired Tuner closure that yields nil (autotune
// not enabled yet) still 404s rather than serving "null".
func TestOpsTunerNilSnapshot(t *testing.T) {
	h := NewHandler(Ops{Registry: NewRegistry(), Tuner: func() any { return nil }})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/tuner", nil))
	if rr.Code != 404 {
		t.Fatalf("GET /tuner = %d, want 404", rr.Code)
	}
}

// TestTraceStoreCopyOnFinish pins the immutable-publication contract: a
// published tree no longer aliases the caller's nodes.
func TestTraceStoreCopyOnFinish(t *testing.T) {
	var ts TraceStore
	root := &TraceNode{Name: "SwitchUnion", Rows: 1,
		Guard:    &GuardEvent{Region: 1, Chosen: 0},
		Children: []*TraceNode{{Name: "Scan(v)", Rows: 1}}}
	ts.Set("SELECT 1", root)
	// Mutate the original tree as a later re-execution would.
	root.Rows = 999
	root.Guard.Chosen = 1
	root.Children[0].Name = "mutated"
	_, pub := ts.Last()
	if pub == root {
		t.Fatal("published tree aliases the caller's root")
	}
	if pub.Rows != 1 || pub.Guard.Chosen != 0 || pub.Children[0].Name != "Scan(v)" {
		t.Fatalf("published tree mutated: %+v", pub)
	}
	if !strings.Contains(pub.String(), "SwitchUnion") {
		t.Fatal("clone lost rendering")
	}
}
