package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// opsFixture builds a handler with two sampled queries — query 1
// unguarded, query 2 guarded — an SLO window, a read source that keeps the
// reads of queries 2 and 99 only, and a static region source.
func opsFixture() (Ops, *Tracer) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1, 64)
	ledger := NewRegionLedger(reg, time.Time{})
	ledger.Reconfigure(0.99, 32)

	plain := begin(tr, "SELECT plain")
	plain.Finish(false)
	guarded := begin(tr, "SELECT guarded")
	guarded.Guard(GuardEvent{Query: 2, Region: 1, Chosen: 0, Bound: 5 * time.Second,
		Staleness: time.Second, StalenessKnown: true})
	guarded.Finish(false)

	ledger.Observe(GuardEvent{Region: 1, Chosen: 0, Bound: 5 * time.Second,
		Staleness: time.Second, StalenessKnown: true})
	ledger.Observe(GuardEvent{Region: 1, Chosen: 0, Bound: 5 * time.Second,
		Staleness: 2 * time.Second, StalenessKnown: true, Degraded: true})

	return Ops{
		Registry: reg, Tracer: tr, Ledger: ledger,
		Reads: func(query uint64) (any, int) {
			if query == 2 || query == 99 {
				return map[string]any{"events": []any{map[string]any{"query_id": query}}, "audit": map[string]any{}}, 128
			}
			return nil, 128
		},
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

var queryRecordKeys = []string{"seq", "query_id", "sql_hash", "sql", "guards", "degraded", "retries", "failed"}

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
	if first["sql"] != "SELECT guarded" {
		t.Fatalf("newest-first violated: first = %v", first["sql"])
	}
	if gs := first["guards"].([]any); len(gs) != 1 || gs[0].(map[string]any)["bound_ns"].(float64) != float64(5*time.Second) {
		t.Fatalf("guards = %v", first["guards"])
	}
	// limit is honored.
	v = getJSON(t, o, "/queries/recent?limit=1")
	if qs := v["queries"].([]any); len(qs) != 1 {
		t.Fatalf("limit=1 returned %d records", len(qs))
	}
}

// TestOpsQueryByID: /queries/{id} joins the sampled record and the read
// source's side of one query; either may be missing, not both.
func TestOpsQueryByID(t *testing.T) {
	o, _ := opsFixture()
	v := getJSON(t, o, "/queries/2")
	requireKeys(t, v, "query_id", "record", "reads")
	rec := v["record"].(map[string]any)
	requireKeys(t, rec, queryRecordKeys...)
	if v["query_id"].(float64) != 2 || rec["query_id"].(float64) != 2 || rec["sql"] != "SELECT guarded" {
		t.Fatalf("record of another query: %v", v)
	}
	reads := v["reads"].(map[string]any)
	if evs := reads["events"].([]any); len(evs) != 1 || evs[0].(map[string]any)["query_id"].(float64) != 2 {
		t.Fatalf("reads = %v", reads)
	}
	// A record with no read kept (an unguarded query), and reads with no
	// record (an unsampled query).
	if v := getJSON(t, o, "/queries/1"); v["record"] == nil || v["reads"] != nil {
		t.Fatalf("/queries/1 = %v", v)
	}
	if v := getJSON(t, o, "/queries/99"); v["record"] != nil || v["reads"] == nil {
		t.Fatalf("/queries/99 = %v", v)
	}
	// Neither: 404, and the body says how much each ring holds (no read
	// source holds nothing).
	for _, c := range []struct {
		o    Ops
		ring float64
	}{{o, 128}, {Ops{Tracer: o.Tracer}, 0}} {
		rr := httptest.NewRecorder()
		NewHandler(c.o).ServeHTTP(rr, httptest.NewRequest("GET", "/queries/77", nil))
		var body map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &body); rr.Code != 404 || err != nil {
			t.Fatalf("GET /queries/77 = %d (%v): %s", rr.Code, err, rr.Body.String())
		}
		requireKeys(t, body, "error", "sample_every", "record_ring", "read_ring")
		if body["sample_every"].(float64) != 1 || body["record_ring"].(float64) != 64 || body["read_ring"].(float64) != c.ring ||
			!strings.Contains(body["error"].(string), "77") {
			t.Fatalf("404 body = %v", body)
		}
	}
}

// TestOpsQueryBadID: an id that is not a decimal query id is a 400 with a
// machine-readable JSON error naming the bad value.
func TestOpsQueryBadID(t *testing.T) {
	o, _ := opsFixture()
	h := NewHandler(o)
	for _, bad := range []string{"nope", "-5", "1.5", "0x10", "18446744073709551616"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/queries/"+bad, nil))
		if rr.Code != 400 {
			t.Fatalf("id %q = %d, want 400", bad, rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("id %q content type = %q", bad, ct)
		}
		var body map[string]string
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("id %q: bad JSON error: %v\n%s", bad, err, rr.Body.String())
		}
		if !strings.Contains(body["error"], bad) {
			t.Fatalf("id %q error does not name the value: %q", bad, body["error"])
		}
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
	for _, url := range []string{"/queries/recent", "/queries/1", "/slo", "/regions", "/tuner", "/audit"} {
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

// TestRecordTraceCopyOnFinish pins the immutable-publication contract: a
// record's EXPLAIN ANALYZE tree is a copy, which a later run of the
// instrumented tree — here, mutating it as one would — leaves unchanged.
func TestRecordTraceCopyOnFinish(t *testing.T) {
	tr := NewTracer(NewRegistry(), 8, 16)
	root := &TraceNode{Name: "SwitchUnion", Opens: 1, Rows: 1,
		Guard:    &GuardEvent{Region: 1, Chosen: 0},
		Children: []*TraceNode{{Name: "Scan(v)", Opens: 1, Rows: 1}}}
	tr.Begin("warm", false, new(QueryTrace))
	id, qt := tr.Begin("SELECT 1", true, new(QueryTrace))
	qt.Trace(root)
	qt.Finish(false)
	// Run the tree again, as a later execution would.
	root.Opens, root.Rows = 2, 999
	root.Guard.Chosen = 1
	root.Children[0].Name = "mutated"
	rec, ok := tr.Record(id)
	if !ok || rec.Trace == nil || rec.Trace == root {
		t.Fatalf("record %+v (%v) does not hold its own tree", rec, ok)
	}
	pub := rec.Trace
	if pub.Opens != 1 || pub.Rows != 1 || pub.Guard.Chosen != 0 || pub.Children[0].Name != "Scan(v)" {
		t.Fatalf("published tree mutated: %+v", pub)
	}
	if !strings.Contains(pub.String(), "SwitchUnion") {
		t.Fatal("clone lost rendering")
	}
}
