package repl

import (
	"testing"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/vclock"
)

// TestSetIntervalClearsOverride: the override falls back to the catalog
// value when cleared, and the catalog region itself is never mutated.
func TestSetIntervalClearsOverride(t *testing.T) {
	f := newFixture(t, nil)
	if got := f.agent.Interval(); got != 10*time.Second {
		t.Fatalf("configured interval = %s", got)
	}
	f.agent.SetInterval(2 * time.Second)
	if got := f.agent.Interval(); got != 2*time.Second {
		t.Fatalf("override = %s", got)
	}
	if f.agent.Region.UpdateInterval != 10*time.Second {
		t.Fatal("SetInterval mutated the catalog region")
	}
	f.agent.SetInterval(0)
	if got := f.agent.Interval(); got != 10*time.Second {
		t.Fatalf("cleared override = %s, want catalog 10s", got)
	}
	f.agent.SetHeartbeatInterval(250 * time.Millisecond)
	if got := f.agent.HeartbeatInterval(); got != 250*time.Millisecond {
		t.Fatalf("hb override = %s", got)
	}
	f.agent.SetHeartbeatInterval(-1)
	if got := f.agent.HeartbeatInterval(); got != f.agent.Region.HeartbeatInterval {
		t.Fatalf("cleared hb override = %s", got)
	}
}

// TestSetIntervalTakesEffectNextTick: a retune reshapes the coordinator's
// very next wake-up — shrinking pulls the pending wake-up forward (clamped
// to now, never into the past), growing pushes it out.
func TestSetIntervalTakesEffectNextTick(t *testing.T) {
	f := newFixture(t, nil)
	clock := vclock.NewVirtual()
	coord := NewCoordinator(clock)
	coord.AddAgent(f.agent)

	// Configured cadence: first step at t=10s.
	if err := coord.Advance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := f.agent.LastProgress(); !got.Equal(t0.Add(10 * time.Second)) {
		t.Fatalf("first step at %v", got)
	}

	// Shrink to 2s: next step lands at 12s, not 20s.
	f.agent.SetInterval(2 * time.Second)
	if err := coord.Advance(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := f.agent.LastProgress(); !got.Equal(t0.Add(12 * time.Second)) {
		t.Fatalf("post-shrink step at %v, want 12s", got)
	}

	// Grow to 30s: nothing fires until 42s.
	f.agent.SetInterval(30 * time.Second)
	if err := coord.Advance(20 * time.Second); err != nil { // t=32s
		t.Fatal(err)
	}
	if got := f.agent.LastProgress(); !got.Equal(t0.Add(12 * time.Second)) {
		t.Fatalf("grown interval fired early at %v", got)
	}
	if err := coord.Advance(10 * time.Second); err != nil { // t=42s
		t.Fatal(err)
	}
	if got := f.agent.LastProgress(); !got.Equal(t0.Add(42 * time.Second)) {
		t.Fatalf("post-grow step at %v, want 42s", got)
	}

	// Shrink mid-wait below the time already elapsed: the overdue wake-up
	// runs at the current instant (no time travel), then resumes cadence.
	f.agent.SetInterval(200 * time.Second)
	if err := coord.Advance(5 * time.Second); err != nil { // t=47s, no step
		t.Fatal(err)
	}
	f.agent.SetInterval(time.Second)                   // due 43s — already past
	if err := coord.Advance(time.Second); err != nil { // t=48s
		t.Fatal(err)
	}
	if got := f.agent.LastProgress(); !got.Equal(t0.Add(48 * time.Second)) {
		t.Fatalf("overdue retune stepped last at %v, want 48s", got)
	}
}

// TestWatchdogThresholdFollowsRetune: the stall threshold is derived from
// the agent's effective interval at check time, so growing the interval
// does not cause spurious restarts and shrinking it tightens supervision.
func TestWatchdogThresholdFollowsRetune(t *testing.T) {
	f := newFixture(t, nil)
	reg := obs.NewRegistry()
	wd := NewWatchdog(f.agent, reg)

	if err := f.agent.Step(t0.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// Configured 10s interval -> 30s threshold; 25s of lag is fine.
	if err := wd.Check(t0.Add(35 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if wd.Restarts() != 0 {
		t.Fatal("restarted under the default threshold")
	}

	// Grown to 60s the same 90s of lag is within the 180s threshold — a lag
	// that would have tripped the old 30s threshold three times over.
	f.agent.SetInterval(60 * time.Second)
	if err := wd.Check(t0.Add(100 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if wd.Restarts() != 0 {
		t.Fatal("spurious restart after growing the interval")
	}
	if got := reg.Snapshot().Gauges[`repl_agent_lag_ns{region="1"}`]; got != int64(90*time.Second) {
		t.Fatalf("lag gauge = %s, want 90s", time.Duration(got))
	}

	// Shrunk to 2s the threshold is 6s: the same silence is now a stall. The
	// restart runs a catch-up step that re-bases progress.
	f.agent.SetInterval(2 * time.Second)
	if err := wd.Check(t0.Add(104 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if wd.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1 under the shrunk threshold", wd.Restarts())
	}
	if got := f.agent.LastProgress(); !got.Equal(t0.Add(104 * time.Second)) {
		t.Fatalf("catch-up step progress = %v", got)
	}
	if got := reg.Snapshot().Counters[`repl_agent_restarts_total{region="1"}`]; got != 1 {
		t.Fatalf("restart counter = %d", got)
	}

	// Freshly restarted, the next check is quiet again.
	if err := wd.Check(t0.Add(105 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if wd.Restarts() != 1 {
		t.Fatal("re-restarted immediately after recovery")
	}
}
