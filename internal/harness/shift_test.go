package harness

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/tuner"
)

// shiftTestConfig is a compact shift scenario (about half the default run)
// that still burns and fully recovers the budget; tests use it to keep the
// suite fast under -race.
func shiftTestConfig() ShiftConfig {
	cfg := DefaultShiftConfig()
	cfg.Duration = 160 * time.Second
	cfg.ShiftAt = 60 * time.Second
	cfg.UpdateInterval = 30 * time.Second
	cfg.SLOWindow = 128
	cfg.Tuner = tuner.LoopConfig{Cadence: 10 * time.Second}
	return cfg
}

// TestShiftRecoveryWithAutotune is the acceptance property of the closed
// loop: after the bound-mix shift (with the remote fall-back partitioned
// away), the region's SLO error budget recovers to at least its pre-shift
// level with zero manual interval changes — purely from the tuner's
// observed-workload retunes.
func TestShiftRecoveryWithAutotune(t *testing.T) {
	cfg := DefaultShiftConfig()
	cfg.Autotune = true
	rep, err := RunShift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatalf("budget never recovered: final %.3f vs pre-shift %.3f\n%s",
			rep.FinalBudget, rep.PreShiftBudget, rep.Tuner)
	}
	if rep.FinalBudget < rep.PreShiftBudget {
		t.Errorf("final budget %.3f below pre-shift %.3f", rep.FinalBudget, rep.PreShiftBudget)
	}
	if rep.Retunes < 2 {
		t.Errorf("retunes = %d, want >= 2 (one down-shift round cannot cross a 4x step cap)", rep.Retunes)
	}
	if rep.FinalInterval >= cfg.UpdateInterval {
		t.Errorf("final interval %s not below the configured %s", rep.FinalInterval, cfg.UpdateInterval)
	}
	if rep.FinalInterval+cfg.UpdateDelay+rep.FinalHeartbeat > shiftTightBound {
		t.Errorf("final cadence %s+%s+%s cannot hold the %s bound",
			rep.FinalInterval, cfg.UpdateDelay, rep.FinalHeartbeat, shiftTightBound)
	}
	if rep.Degraded == 0 {
		t.Error("no degraded serves: the shift never hurt, so recovery proves nothing")
	}
	for _, want := range []string{"applied", "held:dead-band", "budget recovery:", "region 1:"} {
		if !strings.Contains(rep.Tuner, want) {
			t.Errorf("tuner section missing %q:\n%s", want, rep.Tuner)
		}
	}
}

// TestShiftNoRecoveryWithoutAutotune is the control arm: the same seed with
// the loop disabled leaves the interval at its configured value and the
// budget exhausted.
func TestShiftNoRecoveryWithoutAutotune(t *testing.T) {
	cfg := DefaultShiftConfig()
	cfg.Autotune = false
	rep, err := RunShift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered {
		t.Error("budget recovered without autotuning; the scenario no longer needs the loop")
	}
	if rep.FinalBudget != 0 {
		t.Errorf("final budget %.3f, want 0 (exhausted)", rep.FinalBudget)
	}
	if rep.Retunes != 0 || rep.Held != 0 {
		t.Errorf("tuner activity (%d retunes, %d held) with autotuning off", rep.Retunes, rep.Held)
	}
	if rep.FinalInterval != cfg.UpdateInterval {
		t.Errorf("interval moved to %s with autotuning off", rep.FinalInterval)
	}
	if rep.Tuner != "" {
		t.Errorf("tuner section rendered with autotuning off:\n%s", rep.Tuner)
	}
}

// TestShiftDeterministic replays both arms from the same seed and expects
// identical reports — including the rendered tuner timeline byte for byte.
func TestShiftDeterministic(t *testing.T) {
	for _, autotune := range []bool{true, false} {
		cfg := shiftTestConfig()
		cfg.Autotune = autotune
		a, err := RunShift(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunShift(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Errorf("autotune=%v: same seed, different runs:\n a=%+v\n b=%+v", autotune, a, b)
		}
	}
}

// TestShiftTunerEndpointDeterministic scrapes /tuner (and /regions, which
// carries the retuned cadence) through each run's own ObsHandler and
// expects byte-identical JSON across same-seed runs, with the decision
// timeline present.
func TestShiftTunerEndpointDeterministic(t *testing.T) {
	cfg := shiftTestConfig()
	cfg.Autotune = true
	scrape := func() (string, string) {
		var sys *core.System
		c := cfg
		c.OnSystem = func(s *core.System) { sys = s }
		if _, err := RunShift(c); err != nil {
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
		return get("/tuner"), get("/regions")
	}
	tuner1, regions1 := scrape()
	tuner2, regions2 := scrape()
	if tuner1 != tuner2 {
		t.Errorf("/tuner differs across same-seed runs:\n%s\nvs\n%s", tuner1, tuner2)
	}
	if regions1 != regions2 {
		t.Errorf("/regions differs across same-seed runs:\n%s\nvs\n%s", regions1, regions2)
	}
	for _, want := range []string{`"decisions"`, `"reason"`, `"applied_interval_ns"`, `"cadence_ns"`} {
		if !strings.Contains(tuner1, want) {
			t.Errorf("/tuner payload missing %s:\n%s", want, tuner1)
		}
	}
	// What rccbench -shift -snapshot writes as tuner.json: the loop's
	// configuration, its regions and a decision timeline whose every entry
	// gives a reason.
	var snap tuner.Snapshot
	if err := json.Unmarshal([]byte(tuner1), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.CadenceNS == 0 || snap.DeadBand == 0 || snap.MaxStep == 0 || len(snap.Regions) == 0 || len(snap.Decisions) == 0 {
		t.Errorf("/tuner: cadence %d, dead band %v, max step %v, %d regions, %d decisions",
			snap.CadenceNS, snap.DeadBand, snap.MaxStep, len(snap.Regions), len(snap.Decisions))
	}
	for _, d := range snap.Decisions {
		if d.Reason == "" {
			t.Errorf("/tuner: decision without a reason: %+v", d)
		}
	}
}
