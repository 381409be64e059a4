package harness

import (
	"fmt"
	"io"
	"runtime"
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
// Every time is per execution, the median over guardRounds rounds; each
// round times each twin for at least cellTime.
type GuardMeasurement struct {
	Query   string
	Branch  string // "local" or "remote"
	Rows    int
	Guarded exec.PhaseTimes
	Plain   exec.PhaseTimes
	// Delta and DeltaIQR are the median and interquartile range, per phase,
	// of the rounds' guarded − plain differences; Cost and CostIQR those of
	// the rounds' total differences.
	Delta, DeltaIQR exec.PhaseTimes
	Cost, CostIQR   time.Duration
	GuardEval       time.Duration // median selector evaluation time per guard
	GuardCount      int           // SwitchUnions in the plan
}

// Overhead returns the median per-phase overhead across paired rounds.
func (m *GuardMeasurement) Overhead() exec.PhaseTimes { return m.Delta }

// OverheadTotal returns the median total overhead across paired rounds.
func (m *GuardMeasurement) OverheadTotal() time.Duration { return m.Cost }

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

const (
	// guardRounds is how many rounds a measurement takes; a time is the
	// median of the rounds', reported with their interquartile range.
	guardRounds = 7
	// cellTime is the least wall time one round spends on the setup of the
	// two twins and on their executions, each: a fixed time rather than a
	// fixed count, as testing.Benchmark times a benchmark to -benchtime.
	cellTime = 5 * time.Millisecond
)

// cell runs one(twin) for the guarded (0) and the plain (1) twin in turn —
// guarded first on even iterations, plain first on odd ones — from a
// collected heap, until cellTime has passed and at least least pairs ran.
// It returns, per phase, the medians of the two twins' times and of the
// pairs' differences: a collection or a slow spell of the host lands on one
// pair, not on one twin.
func cell(least int, one func(twin int) (exec.PhaseTimes, error)) (g, p, d exec.PhaseTimes, err error) {
	wall := vclock.Wall{}
	var gs, ps, ds []exec.PhaseTimes
	runtime.GC()
	for start := wall.Now(); len(gs) < least || wall.Now().Sub(start) < cellTime; {
		var t [2]exec.PhaseTimes
		for k := 0; k < 2; k++ {
			twin := (len(gs) + k) % 2
			if t[twin], err = one(twin); err != nil {
				return g, p, d, err
			}
		}
		gs, ps = append(gs, t[0]), append(ps, t[1])
		ds = append(ds, exec.PhaseTimes{Setup: t[0].Setup - t[1].Setup, Run: t[0].Run - t[1].Run, Shutdown: t[0].Shutdown - t[1].Shutdown})
	}
	g, _ = spreadPhases(gs)
	p, _ = spreadPhases(ps)
	d, _ = spreadPhases(ds)
	return g, p, d, nil
}

// measureGuardedVsPlain compares the guarded plan for sql against its
// traditional twin without currency checking. Executed, the twin is the
// same operator tree with every SwitchUnion replaced by the branch the guard
// takes at the measurement instant. Set up, it is the plan the paper
// compared against, which builds no guard and no branch a guard would drop:
// for the local branch the statement planned without guards, which builds
// exactly that tree; for the remote one the statement without its currency
// clause (plain), which the cache ships whole. Each round times the two
// setups in one cell and the two executions, of one tree each, in another;
// a time is the median of the rounds', with its interquartile range.
func measureGuardedVsPlain(sys *core.System, sql, plain string, wantLocal bool, reps int) (*GuardMeasurement, error) {
	plan := func(sql string, opts opt.Options) (*opt.Plan, error) {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			return nil, err
		}
		p, _, err := sys.Cache.Plan(sel, opts)
		return p, err
	}
	guarded, err := plan(sql, opt.Options{ForceLocal: true})
	if err != nil {
		return nil, err
	}
	if guarded.Guards == 0 {
		return nil, fmt.Errorf("harness: plan for %q has no currency guard", sql)
	}
	branch, traditional := 1, opt.Options{}
	if wantLocal {
		branch, traditional, plain = 0, opt.Options{NoGuards: true, ForceLocal: true, IgnoreConstraints: true}, sql
	}
	twin, err := plan(plain, traditional)
	if err != nil {
		return nil, err
	}
	var roots [2]exec.Operator
	if roots[0], err = guarded.Build(); err == nil {
		roots[1], err = guarded.Build()
	}
	if err != nil {
		return nil, err
	}
	roots[1] = StripGuards(roots[1], branch)
	// The guard-overhead experiment measures real nanoseconds (the paper's
	// Table 4.5): the explicit wall clock here, and in cell, is the point,
	// not an oversight. The guards' decisions add up their selector times and
	// must take the expected branch.
	wall := vclock.Wall{}
	var guardEval time.Duration
	wrong, runs := -1, 0
	ctx := &exec.EvalContext{Now: sys.Clock.Now(), Clock: wall, OnGuard: func(d exec.GuardDecision) {
		if guardEval += d.GuardTime; (d.Chosen == 0) != wantLocal {
			wrong = d.Chosen
		}
	}}
	m := &GuardMeasurement{
		GuardCount: guarded.Guards,
		Branch:     map[bool]string{true: "local", false: "remote"}[wantLocal],
	}
	builds := [2]*opt.Plan{guarded, twin}
	build := func(i int) (exec.PhaseTimes, error) {
		start := wall.Now()
		_, err := builds[i].Build()
		return exec.PhaseTimes{Setup: wall.Now().Sub(start)}, err
	}
	execute := func(i int) (exec.PhaseTimes, error) {
		res, err := exec.Run(roots[i], ctx, 0)
		if err != nil {
			return exec.PhaseTimes{}, err
		}
		if i == 0 {
			m.Rows, runs = len(res.Rows), runs+1
		}
		return res.Phases, nil
	}
	least := reps / guardRounds
	var gs, ps, deltas []exec.PhaseTimes
	var costs []time.Duration
	for r := 0; r < guardRounds; r++ {
		gSetup, pSetup, dSetup, err := cell(least, build)
		if err != nil {
			return nil, err
		}
		g, p, d, err := cell(least, execute)
		if err != nil {
			return nil, err
		}
		if wrong >= 0 {
			return nil, fmt.Errorf("harness: guard chose branch %d, want local=%v", wrong, wantLocal)
		}
		g.Setup, p.Setup, d.Setup = gSetup.Setup, pSetup.Setup, dSetup.Setup
		gs, ps, deltas = append(gs, g), append(ps, p), append(deltas, d)
		costs = append(costs, d.Total())
	}
	m.Guarded, _ = spreadPhases(gs)
	m.Plain, _ = spreadPhases(ps)
	m.Delta, m.DeltaIQR = spreadPhases(deltas)
	m.Cost, m.CostIQR = spread(costs)
	m.GuardEval = guardEval / time.Duration(runs*m.GuardCount)
	return m, nil
}

// spread returns the median of a sample and its interquartile range.
func spread(xs []time.Duration) (median, iqr time.Duration) {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	n := len(xs)
	return xs[n/2], xs[(3*n)/4] - xs[n/4]
}

// spreadPhases is spread per phase.
func spreadPhases(xs []exec.PhaseTimes) (median, iqr exec.PhaseTimes) {
	phase := func(pick func(exec.PhaseTimes) time.Duration) (time.Duration, time.Duration) {
		vals := make([]time.Duration, len(xs))
		for i, x := range xs {
			vals[i] = pick(x)
		}
		return spread(vals)
	}
	median.Setup, iqr.Setup = phase(func(p exec.PhaseTimes) time.Duration { return p.Setup })
	median.Run, iqr.Run = phase(func(p exec.PhaseTimes) time.Duration { return p.Run })
	median.Shutdown, iqr.Shutdown = phase(func(p exec.PhaseTimes) time.Duration { return p.Shutdown })
	return median, iqr
}

// MeasureGuardOverhead produces the measurements behind Tables 4.4 and 4.5:
// for each query, the guarded plan executed down its local branch and down
// its remote branch, each against its unguarded twin.
func MeasureGuardOverhead(sys *core.System, reps int) (map[string]map[string]*GuardMeasurement, error) {
	out := map[string]map[string]*GuardMeasurement{}
	for _, q := range GuardQueries() {
		local, err := measureGuardedVsPlain(sys, q.Fresh, q.Plain, true, reps)
		if err != nil {
			return nil, fmt.Errorf("%s local: %w", q.Name, err)
		}
		local.Query = q.Name
		rem, err := measureGuardedVsPlain(sys, q.Stale, q.Plain, false, reps)
		if err != nil {
			return nil, fmt.Errorf("%s remote: %w", q.Name, err)
		}
		rem.Query = q.Name
		out[q.Name] = map[string]*GuardMeasurement{"local": local, "remote": rem}
	}
	return out, nil
}

// RunGuardOverhead prints Table 4.4: absolute and relative currency-guard
// overhead for local and remote execution of Q1-Q3, in nanoseconds per
// execution: the median of the rounds and its interquartile range.
func RunGuardOverhead(w io.Writer, sys *core.System, reps int) (map[string]map[string]*GuardMeasurement, error) {
	measured, err := MeasureGuardOverhead(sys, reps)
	if err != nil {
		return nil, err
	}
	section(w, "Table 4.4: overhead of currency guards")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %10s\n",
		"", "Q1", "Q2", "Q3", "Q1(rem)", "Q2(rem)", "Q3(rem)")
	for _, line := range []struct {
		name string
		cell func(m *GuardMeasurement) string
	}{
		{"cost (ns)", func(m *GuardMeasurement) string { return fmt.Sprint(m.Cost.Nanoseconds()) }},
		{"IQR (ns)", func(m *GuardMeasurement) string { return fmt.Sprint(m.CostIQR.Nanoseconds()) }},
		{"cost (%)", func(m *GuardMeasurement) string { return fmt.Sprintf("%.2f", m.OverheadPercent()) }},
		{"# rows", func(m *GuardMeasurement) string { return fmt.Sprint(m.Rows) }},
	} {
		fmt.Fprintf(w, "%-12s", line.name)
		for _, branch := range []string{"local", "remote"} {
			for _, q := range []string{"Q1", "Q2", "Q3"} {
				fmt.Fprintf(w, " %10s", line.cell(measured[q][branch]))
			}
		}
		fmt.Fprintln(w)
	}
	return measured, nil
}

// RunGuardPhases prints Table 4.5: the local-execution guard overhead split
// into setup / run / shutdown phases, plus the "ideal" floor (guard
// predicate evaluation alone, plus shutdown), in nanoseconds per execution:
// each the median of the rounds ± its interquartile range.
func RunGuardPhases(w io.Writer, measured map[string]map[string]*GuardMeasurement) {
	section(w, "Table 4.5: local currency-guard overhead by phase")
	fmt.Fprintf(w, "%-4s %14s %14s %14s %14s\n", "", "setup(ns)", "run(ns)", "shutdown(ns)", "ideal(ns)")
	cell := func(median, iqr time.Duration) string {
		return fmt.Sprintf("%d ±%d", median.Nanoseconds(), iqr.Nanoseconds())
	}
	for _, q := range []string{"Q1", "Q2", "Q3"} {
		m := measured[q]["local"]
		ov, iqr := m.Overhead(), m.DeltaIQR
		ideal := m.GuardEval*time.Duration(m.GuardCount) + ov.Shutdown
		fmt.Fprintf(w, "%-4s %14s %14s %14s %14d\n",
			q, cell(ov.Setup, iqr.Setup), cell(ov.Run, iqr.Run), cell(ov.Shutdown, iqr.Shutdown), ideal.Nanoseconds())
	}
}
