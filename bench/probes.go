package main

import (
	"runtime"
	"sync"
	"time"

	"relaxedcc/internal/cc"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// Probes time one layer's public function in a loop on the warmed system,
// for the per-layer metrics no span of the traced pass isolates.

const (
	// probeStatements bounds how many distinct statements a probe samples.
	probeStatements = 64
	// scaleProbe is how long the 2-client probe runs each of its two sides.
	scaleProbe = 1500 * time.Millisecond
)

// readStatements returns up to max distinct SELECTs of the stream, in first
// use order.
func readStatements(st *stream, max int) []*stmt {
	var out []*stmt
	for i := range st.stmts {
		if !st.stmts[i].write {
			out = append(out, &st.stmts[i])
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// probePlan times Cache.Plan over a sample of the workload's statements and
// counts its allocations.
func probePlan(r *runner) (us, allocs float64, err error) {
	stmts := readStatements(r.st, probeStatements)
	sels := make([]*sqlparser.SelectStmt, len(stmts))
	for i, s := range stmts {
		if sels[i], err = sqlparser.ParseSelect(s.sql); err != nil {
			return 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, sel := range sels {
		if _, _, err := r.sys.Cache.Plan(sel, opt.Options{}); err != nil {
			return 0, 0, err
		}
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(len(sels))
	return d.Seconds() * 1e6 / n, float64(after.Mallocs-before.Mallocs) / n, nil
}

// probeGuard measures what the currency guards cost: build-and-run of the
// guarded plan minus build-and-run of the same statement planned with
// NoGuards, as Table 4.4 does. Statements whose guard picks the remote
// branch right now are skipped (that difference is a remote query, not a
// guard), as are plans without guards. Medians, per statement and then across
// statements, keep one collection or page fault out of a microsecond figure.
func probeGuard(r *runner) (float64, error) {
	var diffs []float64
	for _, s := range readStatements(r.st, probeStatements) {
		sel, err := sqlparser.ParseSelect(s.sql)
		if err != nil {
			return 0, err
		}
		g, _, err := r.sys.Cache.Plan(sel, opt.Options{})
		if err != nil {
			return 0, err
		}
		p, _, err := r.sys.Cache.Plan(sel, opt.Options{NoGuards: true})
		if err != nil || g.Guards == 0 || p.Guards != 0 {
			continue
		}
		allLocal := true
		once := func(plan *opt.Plan) (time.Duration, error) {
			ctx := &exec.EvalContext{Now: r.sys.Clock.Now(), Clock: r.sys.Clock, OnGuard: func(d exec.GuardDecision) {
				allLocal = allLocal && d.Chosen == 0
			}}
			start := time.Now()
			root, err := plan.Build()
			if err != nil {
				return 0, err
			}
			_, err = exec.Run(root, ctx, 0)
			return time.Since(start), err
		}
		first, err := once(g)
		if err != nil {
			return 0, err
		}
		if !allLocal {
			continue
		}
		reps := int(20 * time.Millisecond / (first + 1))
		reps = max(3, min(reps, 200))
		var guarded, plain []float64
		for i := 0; i < reps; i++ {
			dg, err := once(g)
			if err != nil {
				return 0, err
			}
			dp, err := once(p)
			if err != nil {
				return 0, err
			}
			guarded, plain = append(guarded, dg.Seconds()*1e6), append(plain, dp.Seconds()*1e6)
		}
		diffs = append(diffs, median(guarded)-median(plain))
	}
	return median(diffs), nil
}

// probeStorage times point lookups on cust_prj and a full scan of orders_prj.
func probeStorage(r *runner) (getNS, scanRowsPerS float64) {
	cust := r.sys.Cache.ViewData("cust_prj")
	keys := make([]sqltypes.Row, min(hotKeys, cust.Len()))
	for i := range keys {
		keys[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1))}
	}
	const gets = 200000
	start := time.Now()
	for i := 0; i < gets; i++ {
		cust.Get(keys[i%len(keys)])
	}
	getNS = float64(time.Since(start).Nanoseconds()) / gets

	orders := r.sys.Cache.ViewData("orders_prj")
	rows := 0
	start = time.Now()
	for i := 0; i < 3; i++ {
		orders.Scan(func(sqltypes.Row) bool { rows++; return true })
	}
	return getNS, ratio(float64(rows), time.Since(start).Seconds())
}

// probeNormalize times cc.Normalize on the join template's constraint shape
// (one requirement per table instance), the larger of the two the workloads
// produce.
func probeNormalize() float64 {
	reqs := []cc.Requirement{
		{Bound: 15 * time.Second, Set: []cc.InstanceID{1}},
		{Bound: 15 * time.Second, Set: []cc.InstanceID{2}},
	}
	const n = 50000
	classes := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		classes += len(cc.Normalize(reqs).Classes)
	}
	d := time.Since(start)
	if classes != 2*n { // two instances, two classes; also keeps the calls live
		return 0
	}
	return d.Seconds() * 1e6 / n
}

// probeTimer measures what one timed op pays for its two clock reads.
func probeTimer() float64 {
	const n = 200000
	start := time.Now()
	var d time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d += time.Since(t0)
	}
	total := time.Since(start)
	if d < 0 { // monotonic clock; keeps the reads live
		return 0
	}
	return float64(total.Nanoseconds()) / n
}

// probeScale runs the workload's reads from 1 and then 2 client goroutines
// for d each, replication paused, and returns the throughput ratio: the only
// place plan-cache and server mutex contention shows.
func probeScale(r *runner, d time.Duration) float64 {
	var reads []string
	for _, idx := range r.st.ops {
		if s := &r.st.stmts[idx]; !s.write {
			reads = append(reads, s.sql)
			if len(reads) == 1<<16 {
				break
			}
		}
	}
	qps := func(clients int) float64 {
		counts := make([]int, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sess := r.sys.Cache.NewSession()
				for i := c * len(reads) / clients; time.Since(start) < d; i++ {
					if _, err := sess.Query(reads[i%len(reads)]); err == nil {
						counts[c]++
					}
				}
			}(c)
		}
		wg.Wait()
		total := 0
		for _, n := range counts {
			total += n
		}
		return float64(total) / time.Since(start).Seconds()
	}
	one := qps(1)
	return ratio(qps(2), one)
}

// gcPauseMaxUS returns the longest pause among the collections numbered
// (from, to], read from the runtime's ring of recent pauses.
func gcPauseMaxUS(m *runtime.MemStats, from uint32) float64 {
	var worst uint64
	for n := m.NumGC; n > from && m.NumGC-n < uint32(len(m.PauseNs)); n-- {
		if p := m.PauseNs[(n+255)%256]; p > worst {
			worst = p
		}
	}
	return float64(worst) / 1e3
}
