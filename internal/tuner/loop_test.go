package tuner

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"relaxedcc/internal/obs"
)

// fakeObserver feeds Tick one preset window per Cut.
type fakeObserver struct {
	windows [][]obs.WorkloadProfile
}

func (f *fakeObserver) Cut(time.Time) []obs.WorkloadProfile {
	if len(f.windows) == 0 {
		return nil
	}
	w := f.windows[0]
	f.windows = f.windows[1:]
	return w
}

// fakeActuator is an in-memory RegionActuator.
type fakeActuator struct {
	region   int
	delay    time.Duration
	interval time.Duration
	hb       time.Duration
}

func (a *fakeActuator) Region() int                          { return a.region }
func (a *fakeActuator) Delay() time.Duration                 { return a.delay }
func (a *fakeActuator) Interval() time.Duration              { return a.interval }
func (a *fakeActuator) SetInterval(d time.Duration)          { a.interval = d }
func (a *fakeActuator) HeartbeatInterval() time.Duration     { return a.hb }
func (a *fakeActuator) SetHeartbeatInterval(d time.Duration) { a.hb = d }

// tightProfile is a busy window whose bound mix prices well below the 60s
// starting interval: bound 4s at high arrival rate.
func tightProfile(region int) obs.WorkloadProfile {
	return obs.WorkloadProfile{
		Region: region, WindowNS: int64(10 * time.Second),
		Queries: 40, QueriesPerSecond: 4, Local: 40,
		Bounds: []obs.BoundCount{{BoundNS: int64(4 * time.Second), Count: 40}},
	}
}

func loopAt(t *testing.T) time.Time {
	t.Helper()
	return time.Date(2004, 6, 13, 0, 0, 0, 0, time.UTC)
}

// TestLoopMaxStepThenConverge drives the same tight window through several
// ticks: the interval descends by at most maxStep per round, lands on the
// solved value, then the dead-band holds it there.
func TestLoopMaxStepThenConverge(t *testing.T) {
	ob := &fakeObserver{}
	for i := 0; i < 5; i++ {
		ob.windows = append(ob.windows, []obs.WorkloadProfile{tightProfile(1)})
	}
	l := NewLoop(DefaultCadence, ob.Cut, obs.NewRegistry())
	act := &fakeActuator{region: 1, delay: 500 * time.Millisecond,
		interval: 60 * time.Second, hb: time.Second}
	l.AddRegion(act)

	now := loopAt(t)
	for i := 0; i < 5; i++ {
		now = now.Add(10 * time.Second)
		if err := l.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	snap := l.Snapshot()
	if len(snap.Decisions) != 5 {
		t.Fatalf("got %d decisions, want 5", len(snap.Decisions))
	}

	// Round 1: solver wants ~2-3s but max-step caps the move at 60s/4.
	d0 := snap.Decisions[0]
	if d0.Reason != "applied:max-step" || !d0.Applied {
		t.Fatalf("round 1 = %q applied=%v, want applied:max-step", d0.Reason, d0.Applied)
	}
	if d0.AppliedIntervalNS != int64(15*time.Second) {
		t.Fatalf("round 1 applied %s, want 15s (60s / maxStep)",
			time.Duration(d0.AppliedIntervalNS))
	}
	if d0.PrevIntervalNS != int64(60*time.Second) {
		t.Fatalf("round 1 prev %s, want 60s", time.Duration(d0.PrevIntervalNS))
	}
	if solved := time.Duration(d0.SolvedIntervalNS); solved <= 0 || solved > 4*time.Second {
		t.Fatalf("round 1 solved %s, want within the 4s bound", solved)
	}

	// Steps never exceed maxStep in either direction, and every decision on
	// this steady workload solves to the same interval.
	for i, d := range snap.Decisions {
		if d.Applied {
			lo := float64(d.PrevIntervalNS) / 4
			hi := float64(d.PrevIntervalNS) * 4
			if f := float64(d.AppliedIntervalNS); f < lo || f > hi {
				t.Errorf("decision %d applied %s breaches the 4x step cap from %s",
					i, time.Duration(d.AppliedIntervalNS), time.Duration(d.PrevIntervalNS))
			}
		}
		if d.SolvedIntervalNS != d0.SolvedIntervalNS {
			t.Errorf("decision %d solved %s, want steady %s",
				i, time.Duration(d.SolvedIntervalNS), time.Duration(d0.SolvedIntervalNS))
		}
	}

	// The staircase bottoms out on the solved interval, then holds.
	last := snap.Decisions[4]
	if last.Reason != "held:dead-band" || last.Applied {
		t.Fatalf("round 5 = %q applied=%v, want held:dead-band", last.Reason, last.Applied)
	}
	if act.Interval() != time.Duration(d0.SolvedIntervalNS) {
		t.Fatalf("converged interval %s, want solved %s",
			act.Interval(), time.Duration(d0.SolvedIntervalNS))
	}
	if act.HeartbeatInterval() > act.Interval() || act.HeartbeatInterval() < 100*time.Millisecond {
		t.Fatalf("heartbeat %s out of band for interval %s", act.HeartbeatInterval(), act.Interval())
	}
	if snap.Regions[0].Retunes+snap.Regions[0].Held != 5 {
		t.Fatalf("retunes %d + held %d != 5 ticks",
			snap.Regions[0].Retunes, snap.Regions[0].Held)
	}
}

// TestLoopMaxStepUpward: a workload that prices far above the current
// interval lengthens it by at most maxStep per round too.
func TestLoopMaxStepUpward(t *testing.T) {
	loose := obs.WorkloadProfile{
		Region: 1, WindowNS: int64(10 * time.Second),
		Queries: 40, QueriesPerSecond: 0.1, Local: 40,
		Bounds: []obs.BoundCount{{BoundNS: int64(30 * time.Minute), Count: 40}},
	}
	ob := &fakeObserver{windows: [][]obs.WorkloadProfile{{loose}}}
	l := NewLoop(DefaultCadence, ob.Cut, obs.NewRegistry())
	act := &fakeActuator{region: 1, delay: 500 * time.Millisecond,
		interval: time.Second, hb: 100 * time.Millisecond}
	l.AddRegion(act)
	if err := l.Tick(loopAt(t)); err != nil {
		t.Fatal(err)
	}
	d := l.Snapshot().Decisions[0]
	if d.Reason != "applied:max-step" {
		t.Fatalf("reason = %q, want applied:max-step", d.Reason)
	}
	if act.Interval() != 4*time.Second {
		t.Fatalf("interval %s, want 4s (1s * maxStep)", act.Interval())
	}
}

// TestLoopHolds covers the evidence-based hold reasons and that held
// decisions never move the actuator.
func TestLoopHolds(t *testing.T) {
	thin := obs.WorkloadProfile{Region: 1, Queries: 3, Local: 3,
		Bounds: []obs.BoundCount{{BoundNS: int64(time.Second), Count: 3}}}
	unbounded := obs.WorkloadProfile{Region: 1, Queries: 20, Local: 20,
		Unbounded: 20, Bounds: []obs.BoundCount{}}
	idle := obs.WorkloadProfile{Region: 1}
	unknown := tightProfile(9) // region never registered

	ob := &fakeObserver{windows: [][]obs.WorkloadProfile{
		{thin}, {unbounded}, {idle}, {unknown},
	}}
	l := NewLoop(DefaultCadence, ob.Cut, obs.NewRegistry())
	act := &fakeActuator{region: 1, delay: 500 * time.Millisecond,
		interval: 60 * time.Second, hb: time.Second}
	l.AddRegion(act)

	now := loopAt(t)
	for i := 0; i < 4; i++ {
		now = now.Add(10 * time.Second)
		if err := l.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	snap := l.Snapshot()
	// Idle windows and unregistered regions yield no decision at all.
	if len(snap.Decisions) != 2 {
		t.Fatalf("got %d decisions, want 2 (idle/unknown regions are silent)", len(snap.Decisions))
	}
	if snap.Decisions[0].Reason != "held:min-samples" {
		t.Errorf("thin window reason = %q", snap.Decisions[0].Reason)
	}
	if snap.Decisions[1].Reason != "held:no-bounds" {
		t.Errorf("unbounded window reason = %q", snap.Decisions[1].Reason)
	}
	for i, d := range snap.Decisions {
		if d.Applied || d.AppliedIntervalNS != int64(60*time.Second) {
			t.Errorf("held decision %d moved the interval: %+v", i, d)
		}
	}
	if act.Interval() != 60*time.Second || act.HeartbeatInterval() != time.Second {
		t.Fatalf("actuator moved on holds: %s/%s", act.Interval(), act.HeartbeatInterval())
	}
	if snap.Regions[0].Held != 2 || snap.Regions[0].Retunes != 0 {
		t.Fatalf("held=%d retunes=%d, want 2/0", snap.Regions[0].Held, snap.Regions[0].Retunes)
	}
}

// TestLoopDeadBandHold: a solved interval within deadBand of the current one
// is not applied even though it differs.
func TestLoopDeadBandHold(t *testing.T) {
	ob := &fakeObserver{windows: [][]obs.WorkloadProfile{{tightProfile(1)}}}
	l := NewLoop(DefaultCadence, ob.Cut, obs.NewRegistry())
	// Pre-seed the actuator 10% away from where the solver will land: within
	// the 15% dead-band.
	probe := NewLoop(DefaultCadence, (&fakeObserver{windows: [][]obs.WorkloadProfile{{tightProfile(1)}}}).Cut, obs.NewRegistry())
	pact := &fakeActuator{region: 1, delay: 500 * time.Millisecond,
		interval: 3 * time.Second, hb: 300 * time.Millisecond}
	probe.AddRegion(pact)
	if err := probe.Tick(loopAt(t)); err != nil {
		t.Fatal(err)
	}
	solved := time.Duration(probe.Snapshot().Decisions[0].SolvedIntervalNS)

	act := &fakeActuator{region: 1, delay: 500 * time.Millisecond,
		interval: time.Duration(float64(solved) * 1.10), hb: 300 * time.Millisecond}
	l.AddRegion(act)
	if err := l.Tick(loopAt(t)); err != nil {
		t.Fatal(err)
	}
	d := l.Snapshot().Decisions[0]
	if d.Reason != "held:dead-band" || d.Applied {
		t.Fatalf("reason = %q applied=%v, want held:dead-band", d.Reason, d.Applied)
	}
	if act.Interval() != time.Duration(float64(solved)*1.10) {
		t.Fatalf("dead-band hold moved the interval to %s", act.Interval())
	}
}

// TestLoopRingCap: the decision timeline is bounded and keeps the newest
// entries with monotonic sequence numbers.
func TestLoopRingCap(t *testing.T) {
	ob := &fakeObserver{}
	for i := 0; i < 7; i++ {
		ob.windows = append(ob.windows, []obs.WorkloadProfile{tightProfile(1)})
	}
	l := NewLoop(DefaultCadence, ob.Cut, obs.NewRegistry())
	l.decisions = obs.NewRing[Decision](4)
	act := &fakeActuator{region: 1, delay: 500 * time.Millisecond,
		interval: 60 * time.Second, hb: time.Second}
	l.AddRegion(act)
	now := loopAt(t)
	for i := 0; i < 7; i++ {
		now = now.Add(10 * time.Second)
		if err := l.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	ds := l.Snapshot().Decisions
	if len(ds) != 4 {
		t.Fatalf("ring holds %d decisions, want 4", len(ds))
	}
	for i, d := range ds {
		if want := int64(4 + i); d.Seq != want {
			t.Fatalf("ring kept seq %d at slot %d, want %d (newest retained)", d.Seq, i, want)
		}
	}
}

// TestLoopMetrics: decisions move the tuner_* instruments on the registry,
// and /tuner's per-region counts are those counters. A region no window
// profiles (region 2) adds no retune or hold series and reads 0 and 0.
func TestLoopMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ob := &fakeObserver{windows: [][]obs.WorkloadProfile{
		{tightProfile(1)},
		{{Region: 1, Queries: 2, Local: 2,
			Bounds: []obs.BoundCount{{BoundNS: int64(time.Second), Count: 2}}}},
	}}
	l := NewLoop(DefaultCadence, ob.Cut, reg)
	act := &fakeActuator{region: 1, delay: 500 * time.Millisecond,
		interval: 60 * time.Second, hb: time.Second}
	l.AddRegion(act)
	l.AddRegion(&fakeActuator{region: 2, interval: 60 * time.Second, hb: time.Second})
	now := loopAt(t)
	for i := 0; i < 2; i++ {
		now = now.Add(10 * time.Second)
		if err := l.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	rows := l.Snapshot().Regions
	if len(rows) != 2 || rows[0].Retunes != 1 || rows[0].Held != 1 || rows[1].Retunes != 0 || rows[1].Held != 0 {
		t.Errorf("/tuner regions = %+v, want region 1 with 1 retune and 1 hold, region 2 with none", rows)
	}
	snap := reg.Snapshot()
	for _, name := range []string{`tuner_retunes_total{region="2"}`, `tuner_held_total{region="2"}`} {
		if _, ok := snap.Counters[name]; ok {
			t.Errorf("%s registered for a region the loop never decided on", name)
		}
	}
	if got := snap.Counters[`tuner_retunes_total{region="1"}`]; got != 1 {
		t.Errorf("tuner_retunes_total = %d, want 1", got)
	}
	if got := snap.Counters[`tuner_held_total{region="1"}`]; got != 1 {
		t.Errorf("tuner_held_total = %d, want 1", got)
	}
	if got := snap.Gauges[`tuner_target_interval_ns{region="1"}`]; got != int64(act.Interval()) {
		t.Errorf("tuner_target_interval_ns = %d, want %d", got, act.Interval())
	}
}

// --- /tuner golden JSON schema ---

func requireKeys(t *testing.T, obj map[string]any, want ...string) {
	t.Helper()
	if len(obj) != len(want) {
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		t.Fatalf("object has %d keys %v, want %v", len(obj), keys, want)
	}
	for _, k := range want {
		if _, ok := obj[k]; !ok {
			t.Fatalf("missing key %q", k)
		}
	}
}

// TestTunerEndpointSchema pins the exact /tuner payload shape: top level,
// region rows, and decision records — the golden schema the ops tooling and
// bench snapshotters scrape.
func TestTunerEndpointSchema(t *testing.T) {
	ob := &fakeObserver{windows: [][]obs.WorkloadProfile{{tightProfile(1)}}}
	l := NewLoop(DefaultCadence, ob.Cut, obs.NewRegistry())
	act := &fakeActuator{region: 1, delay: 500 * time.Millisecond,
		interval: 60 * time.Second, hb: time.Second}
	l.AddRegion(act)
	if err := l.Tick(loopAt(t)); err != nil {
		t.Fatal(err)
	}

	h := obs.NewHandler(obs.Ops{Registry: obs.NewRegistry(),
		Tuner: func() any { return l.Snapshot() }})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/tuner", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /tuner = %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var v map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	requireKeys(t, v, "cadence_ns", "dead_band", "max_step", "min_samples",
		"target_slack", "regions", "decisions")
	if v["cadence_ns"].(float64) != float64(10*time.Second) {
		t.Fatalf("cadence_ns = %v", v["cadence_ns"])
	}
	if v["dead_band"].(float64) != 0.15 || v["max_step"].(float64) != 4 {
		t.Fatalf("hysteresis config = %v/%v", v["dead_band"], v["max_step"])
	}

	regions := v["regions"].([]any)
	if len(regions) != 1 {
		t.Fatalf("regions = %v", regions)
	}
	r := regions[0].(map[string]any)
	requireKeys(t, r, "region", "interval_ns", "heartbeat_ns", "delay_ns",
		"retunes", "held")
	if r["region"].(float64) != 1 || r["retunes"].(float64) != 1 {
		t.Fatalf("region row wrong: %v", r)
	}
	if r["interval_ns"].(float64) != float64(act.Interval()) {
		t.Fatalf("interval_ns = %v, want %d", r["interval_ns"], act.Interval())
	}

	decisions := v["decisions"].([]any)
	if len(decisions) != 1 {
		t.Fatalf("decisions = %v", decisions)
	}
	d := decisions[0].(map[string]any)
	requireKeys(t, d, "seq", "at_unix_ns", "region", "queries",
		"queries_per_second", "local_ratio", "unbounded", "bounds",
		"prev_interval_ns", "solved_interval_ns", "applied_interval_ns",
		"heartbeat_ns", "predicted_local", "cost_rate", "applied", "reason")
	if d["reason"] != "applied:max-step" || d["applied"] != true {
		t.Fatalf("decision wrong: %v", d)
	}
	bounds := d["bounds"].([]any)
	if len(bounds) != 1 {
		t.Fatalf("bounds = %v", bounds)
	}
	requireKeys(t, bounds[0].(map[string]any), "bound_ns", "count")
}
