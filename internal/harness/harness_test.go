package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/tuner"
)

func testConfig() Config {
	return Config{ScaleFactor: 0.002, Seed: 7, Reps: 14, ScaleStatsToPaper: true}
}

// TestPlanChoiceReproducesPaper is the headline reproduction check: every
// query variant of Tables 4.2/4.3 must land on the paper's plan.
func TestPlanChoiceReproducesPaper(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	var buf bytes.Buffer
	results, err := RunPlanChoice(&buf, sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Case.Expected != 0 && r.Got != r.Case.Expected {
			t.Errorf("%s: got plan %d (%s), paper chose plan %d",
				r.Case.Name, r.Got, r.Plan.Shape, r.Case.Expected)
		}
	}
}

// TestPlanChoiceTableIsPinned holds the report's plan-choice table — plan
// number, cost and shape of every case at the default configuration — to
// what it printed before aggregate statements got their own plans: none of
// the cases aggregates or has a TOP, so a cost-model change for those must
// leave every line, cost included, as it was.
func TestPlanChoiceTableIsPinned(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	var buf bytes.Buffer
	if _, err := RunPlanChoice(&buf, sys); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"Q1   plan 1   1.01       Remote",
		"Q2   plan 2   1623.50    HashJoin(Remote(Orders), Remote(Customer))",
		"Q3   plan 1   1.01       Remote",
		"Q4   plan 4   725.05     GuardJoin(NLJ(Remote(Customer), orders_prj)|HashJoin(Remote(Customer), Remote(Orders)))",
		"Q5   plan 5   630.60     GuardJoin(NLJ(Guard(cust_prj|Remote(Customer)), orders_prj)|HashJoin(Guard(cust_prj|Remote(Customer)), Remote(Orders)))",
		"Q6   plan 1   1.06       Remote",
		"Q7   plan 5   12.56      Guard(cust_prj|Remote(Customer))",
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("plan-choice table lost the line %q:\n%s", line, buf.String())
		}
	}
}

func TestScaleStatsToPaper(t *testing.T) {
	sys, err := NewSystem(Config{ScaleFactor: 0.002, Seed: 7, ScaleStatsToPaper: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	stats := sys.Cache.Catalog().Table("Customer").Stats
	if got := stats.Rows(); got < 140000 || got > 160000 {
		t.Fatalf("scaled customer rows = %d", got)
	}
	if got := sys.Cache.Catalog().Table("Orders").Stats.Rows(); got < 1400000 {
		t.Fatalf("scaled orders rows = %d", got)
	}
	// NDV of the key column scales; low-cardinality nation key does not.
	if ndv := stats.Column("c_custkey").NDV; ndv < 140000 {
		t.Fatalf("c_custkey NDV = %d", ndv)
	}
	if ndv := stats.Column("c_nationkey").NDV; ndv > 25 {
		t.Fatalf("c_nationkey NDV = %d", ndv)
	}
	// The back end keeps physical stats (it executes the real data).
	if got := sys.Backend.Catalog().Table("Customer").Stats.Rows(); got != 300 {
		t.Fatalf("backend rows = %d", got)
	}
}

// TestWorkloadShiftMatchesFormula checks Figure 4.2: measured local
// fractions must track the analytic formula within sampling error.
func TestWorkloadShiftMatchesFormula(t *testing.T) {
	delays := []time.Duration{5 * time.Second}
	bounds := []time.Duration{0, 20 * time.Second, 55 * time.Second, 105 * time.Second, 120 * time.Second}
	pts, err := WorkloadVsBound(delays, bounds, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[5*time.Second] {
		diff := p.Analytic - p.Measured
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.08 {
			t.Errorf("bound %v: analytic %.3f vs measured %.3f", p.Bound, p.Analytic, p.Measured)
		}
	}
	// Monotone in the bound.
	series := pts[5*time.Second]
	for i := 1; i < len(series); i++ {
		if series[i].Measured < series[i-1].Measured {
			t.Fatal("measured fraction not monotone in bound")
		}
	}
}

func TestWorkloadVsIntervalShape(t *testing.T) {
	delays := []time.Duration{5 * time.Second}
	intervals := []time.Duration{5 * time.Second, 20 * time.Second, 50 * time.Second}
	pts, err := WorkloadVsInterval(delays, intervals, 30)
	if err != nil {
		t.Fatal(err)
	}
	series := pts[5*time.Second]
	// Local share falls as the refresh interval grows (paper 4.2(b)).
	if !(series[0].Measured >= series[1].Measured && series[1].Measured >= series[2].Measured) {
		t.Fatalf("series not decreasing: %+v", series)
	}
	if series[0].Measured != 1.0 {
		t.Fatalf("f <= B-d should be always-local, got %v", series[0].Measured)
	}
}

// TestGuardOverheadShape verifies Table 4.4/4.5's qualitative findings:
// guards always pick the right branch; local guard overhead is positive for
// point queries; the ideal floor is below the total overhead.
func TestGuardOverheadShape(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	measured, err := MeasureGuardOverhead(sys, 70)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"Q1", "Q2", "Q3"} {
		if measured[q]["local"].Rows != measured[q]["remote"].Rows {
			t.Errorf("%s: row counts differ across branches", q)
		}
		if measured[q]["local"].GuardEval <= 0 {
			t.Errorf("%s: guard evaluation time not recorded", q)
		}
	}
	if measured["Q1"]["local"].Rows != 1 || measured["Q2"]["local"].Rows != 10 {
		t.Fatalf("row counts: Q1=%d Q2=%d",
			measured["Q1"]["local"].Rows, measured["Q2"]["local"].Rows)
	}
}

func TestRunAllProducesEveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	var buf bytes.Buffer
	cfg := testConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	if err := RunAllOn(&buf, cfg, sys); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 4.1", "Tables 4.2/4.3", "Figure 4.2(a)", "Figure 4.2(b)",
		"Table 4.4", "Table 4.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPlanNumberClassification(t *testing.T) {
	cases := []struct {
		plan *opt.Plan
		want int
	}{
		{&opt.Plan{Shape: "Remote"}, 1},
		{&opt.Plan{Shape: "HashJoin(Remote(A), Remote(B))", RemoteLeaves: 2}, 2},
		{&opt.Plan{Shape: "mixed", LocalLeaves: 1, RemoteLeaves: 1}, 4},
		{&opt.Plan{Shape: "local", LocalLeaves: 2}, 5},
	}
	for _, c := range cases {
		if got := PlanNumber(c.plan); got != c.want {
			t.Errorf("PlanNumber(%s) = %d, want %d", c.plan.Shape, got, c.want)
		}
	}
	if !strings.Contains(PlanLabel(cases[0].plan), "plan 1") {
		t.Fatal("PlanLabel")
	}
}

// TestWorkloadByExecutionMatchesFormula re-runs one Figure 4.2(a) point by
// actually executing guarded queries (not sampling staleness): the guard's
// real decisions must track the analytic formula.
func TestWorkloadByExecutionMatchesFormula(t *testing.T) {
	cases := []struct {
		bound time.Duration
		want  float64
	}{
		{55 * time.Second, 0.50}, // (55-5)/100
		{5 * time.Second, 0.0},   // at the delay: never local
		{105 * time.Second, 1.0}, // beyond d+f: always local
	}
	for _, c := range cases {
		got, err := MeasureWorkloadByExecution(100*time.Second, 5*time.Second, c.bound, 40)
		if err != nil {
			t.Fatal(err)
		}
		diff := got - c.want
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.06 {
			t.Errorf("B=%v: executed local fraction %.3f, want ~%.2f", c.bound, got, c.want)
		}
	}
}

// TestTunerPredictionMatchesSimulation cross-validates the region tuner
// (internal/tuner): at its recommended interval, the actually executed
// local fraction matches its analytic prediction.
func TestTunerPredictionMatchesSimulation(t *testing.T) {
	w := tuner.Workload{
		QueriesPerSecond: 10,
		Bounds:           []tuner.BoundShare{{Bound: 30 * time.Second, Weight: 1}},
	}
	d := 2 * time.Second
	res, err := tuner.Tune(w, tuner.Costs{RefreshCost: 5, RemotePenalty: 0.2}, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureWorkloadByExecution(res.Interval, d, 30*time.Second, 40)
	if err != nil {
		t.Fatal(err)
	}
	diff := got - res.LocalFraction
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.08 {
		t.Fatalf("tuned f=%v: predicted local %.3f, simulated %.3f",
			res.Interval, res.LocalFraction, got)
	}
}

// TestOffloadIncreasesWithBound checks the extension experiment: relaxing
// the currency bound monotonically offloads the back end, reaching 100%
// local past d+f and 0% at bound 0 (traditional semantics).
func TestOffloadIncreasesWithBound(t *testing.T) {
	sys, err := NewSystem(Config{ScaleFactor: 0.002, Seed: 3, ScaleStatsToPaper: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	pts, err := MeasureOffload(sys, []time.Duration{
		0, 10 * time.Second, 25 * time.Second,
	}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].LocalFraction != 0 {
		t.Fatalf("bound 0 must always hit the back end: %+v", pts[0])
	}
	if pts[0].BackendQueries == 0 {
		t.Fatal("link stats not recorded")
	}
	if pts[2].LocalFraction != 1.0 {
		t.Fatalf("bound beyond d+f must be fully local: %+v", pts[2])
	}
	if pts[2].BackendQueries != 0 {
		t.Fatal("fully local workload still shipped queries")
	}
	if !(pts[0].LocalFraction <= pts[1].LocalFraction && pts[1].LocalFraction <= pts[2].LocalFraction) {
		t.Fatalf("offload not monotone: %+v", pts)
	}
}

// auditClean fails t when the system's auditor caught a read that broke its
// promise silently: every test on a loaded system is an oracle run.
func auditClean(t *testing.T, sys *core.System) {
	t.Helper()
	if s := sys.Audit().Summary(); s.ViolationsTotal != 0 {
		t.Errorf("auditor: %d of %d reads broke their promise silently, the last %+v",
			s.ViolationsTotal, s.ReadsChecked, s.RecentViolations[len(s.RecentViolations)-1])
	}
}
