package harness

import (
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/audit"
	"relaxedcc/internal/core"
)

// runAuditedChaos runs cfg and returns its auditor's summary plus the
// rendered report section.
func runAuditedChaos(t *testing.T, cfg ChaosConfig) (audit.Summary, string) {
	t.Helper()
	var aud *audit.Auditor
	prev := cfg.OnSystem
	cfg.OnSystem = func(s *core.System) {
		aud = s.Audit()
		if prev != nil {
			prev(s)
		}
	}
	if _, err := RunChaos(cfg); err != nil {
		t.Fatal(err)
	}
	if aud == nil {
		t.Fatal("OnSystem never ran")
	}
	var b strings.Builder
	RenderAudit(&b, aud)
	return aud.Summary(), b.String()
}

// TestChaosHonestRunAuditsClean: the default chaos schedule — partitions,
// transient errors, a watchdog-recovered stall, ongoing writes — breaks
// promises only in disclosed ways, so the auditor reports zero silent
// violations and the offline replay agrees.
func TestChaosHonestRunAuditsClean(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Duration = 60 * time.Second
	s, section := runAuditedChaos(t, cfg)
	if s.ReadsChecked == 0 {
		t.Fatal("auditor checked nothing")
	}
	if s.ViolationsTotal != 0 || len(s.RecentViolations) != 0 {
		t.Fatalf("honest chaos flagged %d violations: %+v",
			s.ViolationsTotal, s.RecentViolations)
	}
	if s.Disclosed == 0 {
		t.Error("no disclosed serves despite forced degradation")
	}
	if s.Commits == 0 {
		t.Error("history not recorded: 0 commits")
	}
	if !strings.Contains(section, "violations              0") {
		t.Errorf("report section does not show zero violations:\n%s", section)
	}
	if !strings.Contains(section, "offline replay          agrees with online ledger") {
		t.Errorf("offline replay disagreed:\n%s", section)
	}
}

// TestChaosBrokenGuardIsCaught: the deliberately broken schedule — agent
// hard-wedged while the heartbeat is forged fresh — must produce silent
// currency violations with evidence naming the object, the declared bound
// and the delivered staleness.
func TestChaosBrokenGuardIsCaught(t *testing.T) {
	s, section := runAuditedChaos(t, BrokenGuardChaosConfig())
	if s.CurrencyViolations == 0 || len(s.RecentViolations) == 0 {
		t.Fatalf("broken guard not caught: %+v", s.Tally)
	}
	v := s.RecentViolations[len(s.RecentViolations)-1]
	if v.Object != "T" || v.Region != 1 || v.Class != audit.ClassViolationCurrency {
		t.Fatalf("evidence = %+v", v)
	}
	if v.DeliveredNS <= v.BoundNS || v.ExcessNS != v.DeliveredNS-v.BoundNS {
		t.Fatalf("bound/delivered/excess inconsistent: %+v", v)
	}
	// The lie itself is in evidence: the guard saw ~0 staleness while the
	// delivered staleness ran far past the bound.
	if v.GuardStalenessNS >= v.BoundNS {
		t.Fatalf("guard staleness %s not under the bound: the heartbeat forge did not take",
			time.Duration(v.GuardStalenessNS))
	}
	if !strings.Contains(section, "violation q") || !strings.Contains(section, "[currency] T region 1") {
		t.Errorf("report section missing violation evidence:\n%s", section)
	}
}

// TestChaosAuditDeterministic: the audit section, violations and all, is
// byte-identical across same-seed runs — the property the CI smoke gates on.
func TestChaosAuditDeterministic(t *testing.T) {
	cfg := BrokenGuardChaosConfig()
	cfg.Duration = 60 * time.Second
	cfg.GuardLieStart = 20 * time.Second
	s1, sec1 := runAuditedChaos(t, cfg)
	s2, sec2 := runAuditedChaos(t, cfg)
	if sec1 != sec2 {
		t.Errorf("audit section differs across same-seed runs:\n%s\nvs\n%s", sec1, sec2)
	}
	if s1.Tally != s2.Tally {
		t.Errorf("tallies differ: %+v vs %+v", s1.Tally, s2.Tally)
	}
	if s1.ViolationsTotal == 0 {
		t.Error("determinism fixture produced no violations to compare")
	}
}
