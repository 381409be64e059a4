package harness

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/obs"
)

// TestChaosAvailability is the headline chaos property: with serve-local
// degradation the cache answers every query of a run whose timeline is one
// third partition, 10% transient errors, and a wedged agent — and the
// fault machinery (retries, breaker, watchdog) all actually fired.
func TestChaosAvailability(t *testing.T) {
	rep, err := RunChaos(DefaultChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 {
		t.Fatal("chaos run issued no queries")
	}
	if rep.Availability != 1.0 {
		t.Errorf("availability = %.4f (%d/%d answered), want 1.0",
			rep.Availability, rep.Answered, rep.Queries)
	}
	if rep.Degraded == 0 {
		t.Error("no degraded reads: the partition never forced serve-local")
	}
	if rep.Remote == 0 {
		t.Error("no remote reads: the guard never chose the remote branch")
	}
	if rep.Retries == 0 {
		t.Error("no link retries despite a 10% transient error rate")
	}
	if rep.BreakerTrips == 0 {
		t.Error("breaker never tripped despite a 25s partition")
	}
	if rep.AgentRestarts == 0 {
		t.Error("watchdog never restarted the wedged agent")
	}
	if rep.Injected.PartitionDenials == 0 || rep.Injected.Transients == 0 || rep.Injected.Stalls == 0 {
		t.Errorf("injector idle: %+v", rep.Injected)
	}
	if rep.StalenessMax <= 0 {
		t.Error("served-staleness percentiles empty: no local answers recorded")
	}
	if rep.StalenessP50 > rep.StalenessP95 || rep.StalenessP95 > rep.StalenessMax {
		t.Errorf("percentiles not monotone: p50=%s p95=%s max=%s",
			rep.StalenessP50, rep.StalenessP95, rep.StalenessMax)
	}
}

// TestChaosDeterministic replays the same config twice and expects
// identical reports — the property that makes chaos tests CI-safe.
func TestChaosDeterministic(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Duration = 60 * time.Second
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same seed, different runs:\n a=%+v\n b=%+v", a, b)
	}
}

// TestChaosSLOSection asserts the report carries a rendered currency-SLO
// section that reflects the run: degraded serves must have spent budget.
func TestChaosSLOSection(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Duration = 60 * time.Second
	rep, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLO == "" {
		t.Fatal("report has no SLO section")
	}
	for _, want := range []string{"region 1:", "within bound", "error budget", "degraded"} {
		if !strings.Contains(rep.SLO, want) {
			t.Errorf("SLO section missing %q:\n%s", want, rep.SLO)
		}
	}
}

// TestChaosSLOSnapshotDeterministic runs the same seeded chaos config twice,
// scraping /slo, /regions and /queries/recent through each run's own
// ObsHandler (captured via OnSystem), and expects byte-identical JSON — the
// ops surface inherits the virtual clock's determinism.
func TestChaosSLOSnapshotDeterministic(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Duration = 60 * time.Second
	scrape := func() (string, string, string) {
		var sys *core.System
		c := cfg
		c.OnSystem = func(s *core.System) { sys = s }
		if _, err := RunChaos(c); err != nil {
			t.Fatal(err)
		}
		if sys == nil {
			t.Fatal("OnSystem never ran")
		}
		h := sys.ObsHandler()
		get := func(url string) string {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
			if rr.Code != 200 {
				t.Fatalf("GET %s = %d", url, rr.Code)
			}
			return rr.Body.String()
		}
		return get("/slo"), get("/regions"), get("/queries/recent?limit=1000")
	}
	slo1, regions1, recent1 := scrape()
	slo2, regions2, recent2 := scrape()
	if slo1 != slo2 {
		t.Errorf("/slo differs across same-seed runs:\n%s\nvs\n%s", slo1, slo2)
	}
	if regions1 != regions2 {
		t.Errorf("/regions differs across same-seed runs:\n%s\nvs\n%s", regions1, regions2)
	}
	if recent1 != recent2 {
		t.Errorf("/queries/recent differs across same-seed runs:\n%s\nvs\n%s", recent1, recent2)
	}
	// What rccbench -snapshot writes as queries_recent.json: sampled records.
	var recent struct{ Queries []obs.QueryRecord }
	if err := json.Unmarshal([]byte(recent1), &recent); err != nil || len(recent.Queries) == 0 {
		t.Errorf("/queries/recent: %d records (%v)", len(recent.Queries), err)
	}
	if !strings.Contains(slo1, `"regions"`) || !strings.Contains(slo1, `"error_budget"`) {
		t.Errorf("/slo payload missing expected fields:\n%s", slo1)
	}
	// What rccbench -snapshot writes as slo.json: a target, a window and at
	// least one region.
	var slo obs.SLOSnapshot
	if err := json.Unmarshal([]byte(slo1), &slo); err != nil || slo.Target <= 0 || slo.Window <= 0 || len(slo.Regions) == 0 {
		t.Errorf("/slo: target %v, window %v, %d regions (%v)", slo.Target, slo.Window, len(slo.Regions), err)
	}
}

func TestPercentileDur(t *testing.T) {
	s := []time.Duration{4, 1, 3, 2}
	if got := percentileDur(s, 0.5); got != 2 {
		t.Errorf("p50 = %d, want 2", got)
	}
	if got := percentileDur(s, 1.0); got != 4 {
		t.Errorf("max = %d, want 4", got)
	}
	if got := percentileDur(nil, 0.5); got != 0 {
		t.Errorf("empty = %d, want 0", got)
	}
}
