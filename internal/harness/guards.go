package harness

import (
	"fmt"
	"io"
	"slices"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/tpcd"
	"relaxedcc/internal/vclock"
)

// GuardQuery is one of the Table 4.4 queries.
type GuardQuery struct {
	Name  string
	Plain string // without currency clause
	// Fresh and Stale carry currency clauses: Fresh's bound always admits
	// the local branch at the measurement instant; Stale's bound is above
	// the region delay (so the guarded plan compiles) but below the
	// region's staleness at the measurement instant, so the guard falls
	// back to the remote branch.
	Fresh string
	Stale string
}

// GuardQueries reconstructs Table 4.4's Q1 (clustered-index lookup), Q2
// (indexed nested-loop join, ~10 rows) and Q3 (range scan, ~4% of
// Customer).
func GuardQueries() []GuardQuery {
	return []GuardQuery{
		{
			Name:  "Q1",
			Plain: tpcd.PointQuery(17, ""),
			Fresh: tpcd.PointQuery(17, "CURRENCY 3600 ON (Customer)"),
			Stale: tpcd.PointQuery(17, "CURRENCY 5.5 SEC ON (Customer)"),
		},
		{
			Name:  "Q2",
			Plain: tpcd.CustomerOrdersQuery(17, ""),
			Fresh: tpcd.CustomerOrdersQuery(17, "CURRENCY 3600 ON (C), 3600 ON (O)"),
			Stale: tpcd.CustomerOrdersQuery(17, "CURRENCY 5.5 SEC ON (C), 5.5 SEC ON (O)"),
		},
		{
			Name:  "Q3",
			Plain: tpcd.RangeQuery(0, 440, ""),
			Fresh: tpcd.RangeQuery(0, 440, "CURRENCY 3600 ON (Customer)"),
			Stale: tpcd.RangeQuery(0, 440, "CURRENCY 5.5 SEC ON (Customer)"),
		},
	}
}

// GuardMeasurement compares a guarded plan with its exact unguarded twin
// (the same operator tree with every SwitchUnion replaced by the branch the
// guard takes) — the paper's "plans with and without currency checking".
type GuardMeasurement struct {
	Query      string
	Branch     string // "local" or "remote"
	Rows       int
	Guarded    exec.PhaseTimes
	Plain      exec.PhaseTimes
	Delta      exec.PhaseTimes // median of per-round (guarded - plain)
	GuardEval  time.Duration   // average selector evaluation time
	GuardCount int             // SwitchUnions in the plan
}

// Overhead returns the median per-phase overhead across paired rounds.
func (m *GuardMeasurement) Overhead() exec.PhaseTimes { return m.Delta }

// OverheadTotal returns the total elapsed overhead.
func (m *GuardMeasurement) OverheadTotal() time.Duration {
	return m.Delta.Total()
}

// OverheadPercent returns the relative overhead.
func (m *GuardMeasurement) OverheadPercent() float64 {
	if m.Plain.Total() <= 0 {
		return 0
	}
	return 100 * float64(m.OverheadTotal()) / float64(m.Plain.Total())
}

// StripGuards replaces every SwitchUnion in the tree with its child at
// branch, producing the traditional plan without currency checking.
func StripGuards(op exec.Operator, branch int) exec.Operator {
	if su, ok := op.(*exec.SwitchUnion); ok {
		return StripGuards(su.Children[branch], branch)
	}
	exec.VisitChildren(op, func(c *exec.Operator) { *c = StripGuards(*c, branch) })
	return op
}

// timePhases measures averaged per-phase times over iters executions of a
// plan: setup is the (batched) cost of instantiating the executable tree;
// run and shutdown come from the executor's own phase clocks.
func timePhases(plan *opt.Plan, transform func(exec.Operator) exec.Operator, ctx *exec.EvalContext, iters int) (exec.PhaseTimes, int, error) {
	var root exec.Operator
	var err error
	// The guard-overhead experiment measures real microseconds (the paper's
	// Table 4.5); the explicit wall clock here — and the one injected into
	// ctx by measureGuardedVsPlain — is the point, not an oversight.
	wall := vclock.Wall{}
	start := wall.Now()
	for i := 0; i < iters; i++ {
		root, err = plan.Build()
		if err != nil {
			return exec.PhaseTimes{}, 0, err
		}
		if transform != nil {
			root = transform(root)
		}
	}
	setup := wall.Now().Sub(start) / time.Duration(iters)
	var total exec.PhaseTimes
	rows := 0
	for i := 0; i < iters; i++ {
		res, err := exec.Run(root, ctx, 0)
		if err != nil {
			return exec.PhaseTimes{}, 0, err
		}
		total.Add(res.Phases)
		rows = len(res.Rows)
	}
	avg := total.Scale(iters)
	avg.Setup = setup
	return avg, rows, nil
}

// measureGuardedVsPlain compares the guarded plan for sql against its
// traditional twin without currency checking: the same operator tree with
// every SwitchUnion replaced by the branch the guard takes at the
// measurement instant (the paper generated the equivalent traditional local
// and remote plans). Rounds are interleaved and per-phase medians of the
// paired deltas suppress scheduling noise.
func measureGuardedVsPlain(sys *core.System, sql string, wantLocal bool, reps int) (*GuardMeasurement, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	guarded, _, err := sys.Cache.Plan(sel, opt.Options{ForceLocal: true})
	if err != nil {
		return nil, err
	}
	if guarded.Guards == 0 {
		return nil, fmt.Errorf("harness: plan for %q has no currency guard", sql)
	}
	branch := map[bool]int{true: 0, false: 1}[wantLocal]
	strip := func(op exec.Operator) exec.Operator { return StripGuards(op, branch) }
	// Wall clock on purpose: run/shutdown phases must measure real elapsed
	// time, whatever clock the system runs on. The guards' decisions add up
	// their selector times and must take the expected branch.
	var guardEval time.Duration
	wrong := -1
	ctx := &exec.EvalContext{Now: sys.Clock.Now(), Clock: vclock.Wall{}, OnGuard: func(d exec.GuardDecision) {
		if guardEval += d.GuardTime; (d.Chosen == 0) != wantLocal {
			wrong = d.Chosen
		}
	}}
	m := &GuardMeasurement{
		GuardCount: guarded.Guards,
		Branch:     map[bool]string{true: "local", false: "remote"}[wantLocal],
	}
	const rounds = 7
	iters := reps / rounds
	if iters < 1 {
		iters = 1
	}
	var gs, ps []exec.PhaseTimes
	for r := 0; r < rounds; r++ {
		guardEval = 0
		g, rows, err := timePhases(guarded, nil, ctx, iters)
		if err != nil {
			return nil, err
		}
		if wrong >= 0 {
			return nil, fmt.Errorf("harness: guard chose branch %d, want local=%v", wrong, wantLocal)
		}
		p, _, err := timePhases(guarded, strip, ctx, iters)
		if err != nil {
			return nil, err
		}
		m.Rows = rows
		gs = append(gs, g)
		ps = append(ps, p)
		if eval := guardEval / time.Duration(iters); m.GuardEval == 0 || eval < m.GuardEval {
			m.GuardEval = eval
		}
	}
	m.Guarded = medianPhases(gs)
	m.Plain = medianPhases(ps)
	deltas := make([]exec.PhaseTimes, rounds)
	for r := range gs {
		deltas[r] = exec.PhaseTimes{
			Setup:    gs[r].Setup - ps[r].Setup,
			Run:      gs[r].Run - ps[r].Run,
			Shutdown: gs[r].Shutdown - ps[r].Shutdown,
		}
	}
	m.Delta = medianPhases(deltas)
	if m.GuardCount > 0 {
		m.GuardEval /= time.Duration(m.GuardCount)
	}
	return m, nil
}

// medianPhases takes the per-phase median of a sample of phase timings.
func medianPhases(xs []exec.PhaseTimes) exec.PhaseTimes {
	med := func(pick func(exec.PhaseTimes) time.Duration) time.Duration {
		vals := make([]time.Duration, len(xs))
		for i, x := range xs {
			vals[i] = pick(x)
		}
		slices.Sort(vals)
		return vals[len(vals)/2]
	}
	return exec.PhaseTimes{
		Setup:    med(func(p exec.PhaseTimes) time.Duration { return p.Setup }),
		Run:      med(func(p exec.PhaseTimes) time.Duration { return p.Run }),
		Shutdown: med(func(p exec.PhaseTimes) time.Duration { return p.Shutdown }),
	}
}

// MeasureGuardOverhead produces the measurements behind Tables 4.4 and 4.5:
// for each query, the guarded plan executed down its local branch and down
// its remote branch, each against its unguarded twin.
func MeasureGuardOverhead(sys *core.System, reps int) (map[string]map[string]*GuardMeasurement, error) {
	out := map[string]map[string]*GuardMeasurement{}
	for _, q := range GuardQueries() {
		local, err := measureGuardedVsPlain(sys, q.Fresh, true, reps)
		if err != nil {
			return nil, fmt.Errorf("%s local: %w", q.Name, err)
		}
		local.Query = q.Name
		rem, err := measureGuardedVsPlain(sys, q.Stale, false, reps)
		if err != nil {
			return nil, fmt.Errorf("%s remote: %w", q.Name, err)
		}
		rem.Query = q.Name
		out[q.Name] = map[string]*GuardMeasurement{"local": local, "remote": rem}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// RunGuardOverhead prints Table 4.4: absolute and relative currency-guard
// overhead for local and remote execution of Q1-Q3.
func RunGuardOverhead(w io.Writer, sys *core.System, reps int) (map[string]map[string]*GuardMeasurement, error) {
	measured, err := MeasureGuardOverhead(sys, reps)
	if err != nil {
		return nil, err
	}
	section(w, "Table 4.4: overhead of currency guards")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %10s\n",
		"", "Q1", "Q2", "Q3", "Q1(rem)", "Q2(rem)", "Q3(rem)")
	fmt.Fprintf(w, "%-12s", "cost (ms)")
	for _, branch := range []string{"local", "remote"} {
		for _, q := range []string{"Q1", "Q2", "Q3"} {
			fmt.Fprintf(w, " %10.4f", ms(measured[q][branch].OverheadTotal()))
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "cost (%)")
	for _, branch := range []string{"local", "remote"} {
		for _, q := range []string{"Q1", "Q2", "Q3"} {
			fmt.Fprintf(w, " %10.2f", measured[q][branch].OverheadPercent())
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "# rows")
	for _, branch := range []string{"local", "remote"} {
		for _, q := range []string{"Q1", "Q2", "Q3"} {
			fmt.Fprintf(w, " %10d", measured[q][branch].Rows)
		}
	}
	fmt.Fprintln(w)
	return measured, nil
}

// RunGuardPhases prints Table 4.5: the local-execution guard overhead split
// into setup / run / shutdown phases, plus the "ideal" floor (guard
// predicate evaluation alone, plus shutdown).
func RunGuardPhases(w io.Writer, measured map[string]map[string]*GuardMeasurement) {
	section(w, "Table 4.5: local currency-guard overhead by phase")
	fmt.Fprintf(w, "%-4s %12s %12s %12s %12s\n", "", "setup(ms)", "run(ms)", "shutdown(ms)", "ideal(ms)")
	for _, q := range []string{"Q1", "Q2", "Q3"} {
		m := measured[q]["local"]
		ov := m.Overhead()
		ideal := m.GuardEval*time.Duration(m.GuardCount) + ov.Shutdown
		fmt.Fprintf(w, "%-4s %12.4f %12.4f %12.4f %12.4f\n",
			q, ms(ov.Setup), ms(ov.Run), ms(ov.Shutdown), ms(ideal))
	}
}
