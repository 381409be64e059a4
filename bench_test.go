// Package relaxedcc_test hosts the benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (Section 4),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: benchmarks reporting reproduction quantities attach them
// via b.ReportMetric (e.g. local%/analytic% for Figure 4.2, plan numbers
// for Figure 4.1).
package relaxedcc_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxedcc/internal/cc"
	"relaxedcc/internal/core"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
	"relaxedcc/internal/tuner"
)

var (
	benchOnce sync.Once
	benchSys  *core.System
	benchErr  error
)

// benchSystem lazily builds the shared experimental system: physical scale
// 0.01 (1,500 customers, 15,000 orders), shadow statistics scaled to the
// paper's scale-1.0 cardinalities.
func benchSystem(b *testing.B) *core.System {
	b.Helper()
	benchOnce.Do(func() {
		benchSys, benchErr = harness.NewSystem(harness.Config{
			ScaleFactor: 0.01, Seed: 2004, ScaleStatsToPaper: true,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSys
}

// BenchmarkTable41Setup measures standing up the paper's cache
// configuration (Table 4.1): two currency regions and two materialized
// views over a freshly loaded TPC-D database.
func BenchmarkTable41Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem()
		tpcd.CreateSchema(sys)
		if err := tpcd.SetupCache(sys); err != nil {
			b.Fatal(err)
		}
		if err := tpcd.Load(sys, tpcd.Config{ScaleFactor: 0.002, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig41PlanChoice optimizes every Table 4.2/4.3 query variant,
// verifying each lands on the paper's plan (Figure 4.1), and reports the
// per-query optimization time.
func BenchmarkFig41PlanChoice(b *testing.B) {
	sys := benchSystem(b)
	cases := harness.PlanChoiceCases()
	sels := make([]*sqlparser.SelectStmt, len(cases))
	for i, c := range cases {
		sel, err := sqlparser.ParseSelect(c.SQL)
		if err != nil {
			b.Fatal(err)
		}
		sels[i] = sel
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, sel := range sels {
			plan, _, err := sys.Cache.Plan(sel, opt.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if want := cases[j].Expected; want != 0 && harness.PlanNumber(plan) != want {
				b.Fatalf("%s: got plan %d, want %d", cases[j].Name, harness.PlanNumber(plan), want)
			}
		}
	}
	b.ReportMetric(float64(len(cases)), "queries/op")
}

// BenchmarkFig42aWorkloadVsBound reproduces one point of Figure 4.2(a)
// (d=5s, f=100s, B=55s -> 50% local) and reports measured vs analytic.
func BenchmarkFig42aWorkloadVsBound(b *testing.B) {
	var measured, analytic float64
	for i := 0; i < b.N; i++ {
		pts, err := harness.WorkloadVsBound(
			[]time.Duration{5 * time.Second},
			[]time.Duration{55 * time.Second},
			40)
		if err != nil {
			b.Fatal(err)
		}
		p := pts[5*time.Second][0]
		measured, analytic = p.Measured, p.Analytic
	}
	b.ReportMetric(measured*100, "local%")
	b.ReportMetric(analytic*100, "analytic%")
}

// BenchmarkFig42bWorkloadVsInterval reproduces one point of Figure 4.2(b)
// (d=5s, B=10s, f=20s -> 25% local).
func BenchmarkFig42bWorkloadVsInterval(b *testing.B) {
	var measured, analytic float64
	for i := 0; i < b.N; i++ {
		pts, err := harness.WorkloadVsInterval(
			[]time.Duration{5 * time.Second},
			[]time.Duration{20 * time.Second},
			40)
		if err != nil {
			b.Fatal(err)
		}
		p := pts[5*time.Second][0]
		measured, analytic = p.Measured, p.Analytic
	}
	b.ReportMetric(measured*100, "local%")
	b.ReportMetric(analytic*100, "analytic%")
}

// benchPlan plans sql once and executes it per iteration. Given a branch, it
// runs the plan's traditional twin instead: every guard replaced by that
// branch (harness.StripGuards).
func benchPlan(b *testing.B, sys *core.System, sql string, opts opt.Options, branch ...int) {
	b.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	plan, _, err := sys.Cache.Plan(sel, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &exec.EvalContext{Now: sys.Clock.Now()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root, err := plan.Build()
		if err != nil {
			b.Fatal(err)
		}
		for _, br := range branch {
			root = harness.StripGuards(root, br)
		}
		if _, err := exec.Run(root, ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable44GuardOverhead times the Table 4.4 configurations: each of
// Q1-Q3 executed down the guarded local branch, the guarded remote branch,
// and as traditional unguarded local/remote plans (the remote one is the
// guarded plan with its guard stripped, as rccbench measures it). Comparing
// the guard-* and plain-* sub-benchmarks yields the table's overhead rows.
func BenchmarkTable44GuardOverhead(b *testing.B) {
	sys := benchSystem(b)
	for _, q := range harness.GuardQueries() {
		b.Run(q.Name+"/guard-local", func(b *testing.B) {
			benchPlan(b, sys, q.Fresh, opt.Options{ForceLocal: true})
		})
		b.Run(q.Name+"/plain-local", func(b *testing.B) {
			benchPlan(b, sys, q.Fresh, opt.Options{NoGuards: true, ForceLocal: true, IgnoreConstraints: true})
		})
		b.Run(q.Name+"/guard-remote", func(b *testing.B) {
			benchPlan(b, sys, q.Stale, opt.Options{ForceLocal: true})
		})
		b.Run(q.Name+"/plain-remote", func(b *testing.B) {
			benchPlan(b, sys, q.Stale, opt.Options{ForceLocal: true}, 1)
		})
	}
}

// BenchmarkTable45GuardPhases reports the per-phase guard overhead
// measurement behind Table 4.5 as custom metrics (microseconds).
func BenchmarkTable45GuardPhases(b *testing.B) {
	sys := benchSystem(b)
	var setup, run, shutdown float64
	for i := 0; i < b.N; i++ {
		measured, err := harness.MeasureGuardOverhead(sys, 70)
		if err != nil {
			b.Fatal(err)
		}
		ov := measured["Q1"]["local"].Overhead()
		setup = float64(ov.Setup.Nanoseconds()) / 1e3
		run = float64(ov.Run.Nanoseconds()) / 1e3
		shutdown = float64(ov.Shutdown.Nanoseconds()) / 1e3
	}
	b.ReportMetric(setup, "setup-us")
	b.ReportMetric(run, "run-us")
	b.ReportMetric(shutdown, "shutdown-us")
}

// ---- ablation benchmarks (DESIGN.md section 5) ----

// BenchmarkAblationGuardVsUnguarded isolates the pure guard cost on the
// smallest local query.
func BenchmarkAblationGuardVsUnguarded(b *testing.B) {
	sys := benchSystem(b)
	q := tpcd.PointQuery(17, "CURRENCY 3600 ON (Customer)")
	b.Run("guarded", func(b *testing.B) { benchPlan(b, sys, q, opt.Options{ForceLocal: true}) })
	b.Run("unguarded", func(b *testing.B) {
		benchPlan(b, sys, q, opt.Options{NoGuards: true, ForceLocal: true, IgnoreConstraints: true})
	})
}

// BenchmarkAblationCostBasedVsAlwaysLocal contrasts the paper's cost-based
// choice with the always-use-the-cache heuristic of earlier systems on Q6
// (where the back-end index makes remote the right answer).
func BenchmarkAblationCostBasedVsAlwaysLocal(b *testing.B) {
	sys := benchSystem(b)
	q := tpcd.RangeQuery(0, 3.85, "CURRENCY 3600 ON (Customer)")
	b.Run("cost-based", func(b *testing.B) { benchPlan(b, sys, q, opt.Options{}) })
	b.Run("always-local", func(b *testing.B) { benchPlan(b, sys, q, opt.Options{ForceLocal: true}) })
}

// BenchmarkOptimizerConsistencyChecking measures the cost of compile-time
// consistency checking by optimizing Q5 (two guarded views) with and
// without constraint machinery engaged.
func BenchmarkOptimizerConsistencyChecking(b *testing.B) {
	sys := benchSystem(b)
	sel, err := sqlparser.ParseSelect(tpcd.JoinQuery("C.c_acctbal >= 0", "CURRENCY 30 ON (C), 30 ON (O)"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-constraints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.Cache.Plan(sel, opt.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ignore-constraints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.Cache.Plan(sel, opt.Options{IgnoreConstraints: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConstraintNormalization measures cc.Normalize on the paper's Q2
// constraint shape.
func BenchmarkConstraintNormalization(b *testing.B) {
	reqs := []cc.Requirement{
		{Bound: 5 * time.Minute, Set: []cc.InstanceID{1, 2, 3}},
		{Bound: 10 * time.Minute, Set: []cc.InstanceID{2, 3}},
		{Bound: 30 * time.Minute, Set: []cc.InstanceID{4}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cc.Normalize(reqs)
		if len(c.Classes) != 2 {
			b.Fatal("unexpected normalization")
		}
	}
}

// BenchmarkReplicationApply measures agent throughput applying one
// propagation step of update transactions.
func BenchmarkReplicationApply(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.002, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for k := 1; k <= 100; k++ {
			if _, err := sys.Exec(
				"UPDATE Customer SET c_acctbal = 1.0 WHERE c_custkey = " + itoa(k)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := sys.Run(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100, "txns/op")
}

// BenchmarkAnalyze recomputes the back end's statistics (AnalyzeAll) over a
// scale-0.1 TPC-D load, 15,000 customers and 150,000 orders, built outside
// the timer: the ANALYZE every loaded system's build runs once.
func BenchmarkAnalyze(b *testing.B) {
	sys := core.NewSystem()
	tpcd.CreateSchema(sys)
	if err := tpcd.Load(sys, tpcd.Config{ScaleFactor: 0.1, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Backend.AnalyzeAll()
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// BenchmarkEndToEndQuery is the adoption-path microbenchmark: a statement
// through the cache's whole pipeline, answered locally and remotely, as a
// statement-cache hit and as a new text of a known shape.
func BenchmarkEndToEndQuery(b *testing.B) {
	sys := benchSystem(b)
	b.Run("local-point", func(b *testing.B) {
		q := tpcd.PointQuery(17, "CURRENCY 3600 ON (Customer)")
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote-point", func(b *testing.B) {
		q := tpcd.PointQuery(17, "")
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The local point read from GOMAXPROCS goroutines at once, one session
	// each, over the 256 texts of the point_hot workload: scripts/bench.sh
	// runs it at -cpu 1 and -cpu 2, and the ratio of the two rows' ns/op is
	// what a second core adds.
	hot := make([]string, 256)
	for i := range hot {
		hot[i] = tpcd.PointQuery(int64(1+i), "CURRENCY 60 ON (Customer)")
		if res, err := sys.Query(hot[i]); err != nil || len(res.LocalViews) != 1 {
			b.Fatalf("%s: %v, local views %v; want a guarded local read", hot[i], err, res.LocalViews)
		}
	}
	b.Run("local-point-parallel", func(b *testing.B) {
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			s := sys.Cache.NewSession()
			for i := next.Add(1); pb.Next(); i++ {
				if _, err := s.Query(hot[i%256]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	// A statement-cache miss on a known shape: every iteration is a text the
	// cache does not hold (the keys cycle over more statements than it keeps),
	// of a shape it has a template for — one lexer pass and a bind, where
	// BenchmarkOptimizerConsistencyChecking prices the optimize of a true miss.
	customers := tpcd.Config{ScaleFactor: 0.01}.Customers()
	for name, text := range map[string]func(key int64) string{
		"shape-hit":      func(key int64) string { return tpcd.PointQuery(key, "CURRENCY 3600 ON (Customer)") },
		"shape-hit-join": func(key int64) string { return tpcd.Query(tpcd.KindJoin, key, time.Hour) },
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Query(text(int64(1 + i%customers))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// DML as the read_write workload issues it, forwarded through the cache
	// to the back end: a by-key UPDATE, and an INSERT with the DELETE that
	// takes its row out again. The texts are made before the clock starts,
	// each of the ring's with literals of its own.
	const ring = 1024
	for name, texts := range map[string]func(i int) []string{
		"update-by-key": func(i int) []string {
			return []string{fmt.Sprintf("UPDATE Customer SET c_acctbal = %d.%02d WHERE c_custkey = %d", i, i%100, 1+i%customers)}
		},
		"insert-delete": func(i int) []string {
			cust, key := 1+i%customers, 1<<40+i
			return []string{
				fmt.Sprintf("INSERT INTO Orders VALUES (%d, %d, %d.%02d, GETDATE())", cust, key, i, i%100),
				fmt.Sprintf("DELETE FROM Orders WHERE o_custkey = %d AND o_orderkey = %d", cust, key),
			}
		},
	} {
		stmts := make([][]string, ring)
		for i := range stmts {
			stmts[i] = texts(i)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, sql := range stmts[i%ring] {
					if n, err := sys.Exec(sql); err != nil || n != 1 {
						b.Fatalf("%s: %d, %v", sql, n, err)
					}
				}
			}
		})
	}
}

// ---- executor benchmarks: row-at-a-time vs batch vs morsel-parallel ----

var (
	execBenchOnce sync.Once
	execBenchSys  *core.System
	execBenchErr  error
)

// execBenchSystem loads a back end big enough that scan cost dominates:
// scale 0.05 gives 7,500 customers and 75,000 orders.
func execBenchSystem(b *testing.B) *core.System {
	b.Helper()
	execBenchOnce.Do(func() {
		sys := core.NewSystem()
		tpcd.CreateSchema(sys)
		execBenchErr = tpcd.Load(sys, tpcd.Config{ScaleFactor: 0.05, Seed: 7})
		execBenchSys = sys
	})
	if execBenchErr != nil {
		b.Fatal(execBenchErr)
	}
	return execBenchSys
}

// benchStoredSchema builds the executor schema matching a stored table's
// row layout.
func benchStoredSchema(sys *core.System, table string) *exec.Schema {
	def := sys.Backend.Catalog().Table(table)
	cols := make([]exec.Col, len(def.Columns))
	for i, c := range def.Columns {
		cols[i] = exec.Col{Binding: table, Name: c.Name, Kind: c.Type}
	}
	return exec.NewSchema(cols...)
}

// benchPred compiles a predicate as the planner does: both forms, the
// batch one a typed kernel where one takes the shape.
func benchPred(b *testing.B, where string, schema *exec.Schema) *exec.Pred {
	b.Helper()
	sel, err := sqlparser.ParseSelect("SELECT 1 FROM x WHERE " + where)
	if err != nil {
		b.Fatal(err)
	}
	p, err := exec.CompilePred(sel.Where, schema)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchKey resolves a column of a stored schema as a join key, the way the
// planner passes one: by ordinal.
func benchKey(b *testing.B, col string, schema *exec.Schema) []int {
	b.Helper()
	ord, err := schema.Resolve("", col)
	if err != nil {
		b.Fatal(err)
	}
	return []int{ord}
}

// runExecBench drains a freshly built tree per iteration — counting rows
// without materializing a result set, so the measurement isolates operator
// throughput — and reports rows/sec plus allocations.
func runExecBench(b *testing.B, build func() exec.Operator) {
	ctx := &exec.EvalContext{Now: time.Unix(0, 0)}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		op := build()
		if err := op.Open(ctx); err != nil {
			b.Fatal(err)
		}
		rows = 0
		for {
			cb, more, err := op.NextVec()
			if err != nil {
				b.Fatal(err)
			}
			if !more {
				break
			}
			rows += cb.NumActive()
		}
		if err := op.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/sec, "rows/sec")
	}
}

// BenchmarkExecScan measures a full Orders scan, serial and morsel-parallel
// (the worker-scaling numbers behind the monotonicity gate).
func BenchmarkExecScan(b *testing.B) {
	sys := execBenchSystem(b)
	tbl := sys.Backend.Table("Orders")
	schema := benchStoredSchema(sys, "Orders")
	b.Run("serial", func(b *testing.B) {
		runExecBench(b, func() exec.Operator { return exec.NewScan(tbl, schema) })
	})
	for _, dop := range []int{2, 4} {
		dop := dop
		b.Run(fmt.Sprintf("parallel-%d", dop), func(b *testing.B) {
			runExecBench(b, func() exec.Operator {
				ps := exec.NewParallelScan(tbl, schema)
				ps.DOP = dop
				return ps
			})
		})
	}
}

// BenchmarkExecFilterScan pushes a predicate, compiled as the planner does
// (to a typed columnar kernel), through a scan. serial and the
// morsel-parallel parallel-N run the ~50%-selective o_totalprice > 250000 and
// copy the survivors out (the monotone-scaling gate compares parallel-2 and
// parallel-4; parallel-2-reused runs one tree for every op).
// Each other serial row times one comparison loop under a consumer that
// reads no column (the shape of COUNT(*) or EXISTS), so nothing is copied:
// > at ~2% and BETWEEN at ~50% (no branch depends on the data, so per
// scanned row the 50% row costs about what the 2% row does; BenchmarkKernel
// in internal/exec times one loop at both), INT = and VARCHAR <> (over
// Customer, whose c_name is the one VARCHAR column). rows/sec counts
// survivors.
func BenchmarkExecFilterScan(b *testing.B) {
	sys := execBenchSystem(b)
	tbl := sys.Backend.Table("Orders")
	schema := benchStoredSchema(sys, "Orders")
	pred := benchPred(b, "o_totalprice > 250000", schema)
	b.Run("serial", func(b *testing.B) {
		runExecBench(b, func() exec.Operator {
			s := exec.NewScan(tbl, schema)
			s.Filter = pred
			return s
		})
	})
	for _, dop := range []int{2, 4} {
		dop := dop
		b.Run(fmt.Sprintf("parallel-%d", dop), func(b *testing.B) {
			runExecBench(b, func() exec.Operator {
				ps := exec.NewParallelScan(tbl, schema)
				ps.Filter = pred
				ps.DOP = dop
				return ps
			})
		})
	}
	// One tree reused across ops, as a session's idle trees are: its
	// morsels, queues, exchange and batches keep their capacity, so an op
	// allocates at most the start of its helper (the allocation ceiling).
	b.Run("parallel-2-reused", func(b *testing.B) {
		ps := exec.NewParallelScan(tbl, schema)
		ps.Filter, ps.DOP = pred, 2
		runExecBench(b, func() exec.Operator { return ps })
	})
	for _, c := range []struct{ name, table, where string }{
		{"serial-float-gt", "Orders", "o_totalprice > 490000"},
		{"serial-float-between", "Orders", "o_totalprice BETWEEN 125000 AND 375000"},
		{"serial-int-eq", "Orders", "o_custkey = 1000"},
		{"serial-varchar-ne", "Customer", "c_name <> 'Customer#000001000'"},
	} {
		tbl, schema := sys.Backend.Table(c.table), benchStoredSchema(sys, c.table)
		pred := benchPred(b, c.where, schema)
		b.Run(c.name, func(b *testing.B) {
			runExecBench(b, func() exec.Operator {
				s := exec.NewScan(tbl, schema)
				s.Filter = pred
				return &exec.Project{Child: s, Exprs: []exec.Expr{}, Out: exec.NewSchema()}
			})
		})
	}
}

// BenchmarkExecHashJoin joins Customer (build) with Orders (probe); the
// probe side dominates.
func BenchmarkExecHashJoin(b *testing.B) {
	sys := execBenchSystem(b)
	cust := sys.Backend.Table("Customer")
	orders := sys.Backend.Table("Orders")
	cs := benchStoredSchema(sys, "Customer")
	os := benchStoredSchema(sys, "Orders")
	leftKey, rightKey := benchKey(b, "o_custkey", os), benchKey(b, "c_custkey", cs)
	b.Run("serial", func(b *testing.B) {
		runExecBench(b, func() exec.Operator {
			return exec.NewHashJoin(exec.NewScan(orders, os), exec.NewScan(cust, cs), leftKey, rightKey, nil, exec.JoinInner)
		})
	})
}

// BenchmarkExecIndexLoopJoin seeks Orders' clustered index once per customer
// with c_acctbal >= 9000 (about a tenth of them, ten orders each) — the
// shape of the end-to-end benchmark's join_local. rows/sec counts joined
// rows.
func BenchmarkExecIndexLoopJoin(b *testing.B) {
	sys := execBenchSystem(b)
	cust := sys.Backend.Table("Customer")
	orders := sys.Backend.Table("Orders")
	cs := benchStoredSchema(sys, "Customer")
	os := benchStoredSchema(sys, "Orders")
	pred := benchPred(b, "c_acctbal >= 9000", cs)
	key := benchKey(b, "c_custkey", cs)
	pk := orders.Def().IndexOn("o_custkey").Name // the clustered (o_custkey, o_orderkey)
	b.Run("serial", func(b *testing.B) {
		runExecBench(b, func() exec.Operator {
			outer := exec.NewScan(cust, cs)
			outer.Filter = pred
			return exec.NewIndexLoopJoin(outer, orders, pk, os, key, nil, exec.JoinInner)
		})
	})
}

// BenchmarkExecMergeJoin merges Customer with Orders, both in clustered
// (customer-key) order: every order finds its customer.
func BenchmarkExecMergeJoin(b *testing.B) {
	sys := execBenchSystem(b)
	cs := benchStoredSchema(sys, "Customer")
	os := benchStoredSchema(sys, "Orders")
	leftKey, rightKey := benchKey(b, "c_custkey", cs), benchKey(b, "o_custkey", os)
	b.Run("serial", func(b *testing.B) {
		runExecBench(b, func() exec.Operator {
			return exec.NewMergeJoin(
				exec.NewScan(sys.Backend.Table("Customer"), cs), exec.NewScan(sys.Backend.Table("Orders"), os),
				leftKey, rightKey, nil, exec.JoinInner)
		})
	})
}

// BenchmarkExecSort orders all of Orders on o_totalprice, with no TOP: the
// sort keeps every row it reads and emits them in order. "scan" reads them
// off the table's leaves, "rows" from a row list (the form of a remote
// reply).
func BenchmarkExecSort(b *testing.B) {
	sys := execBenchSystem(b)
	tbl := sys.Backend.Table("Orders")
	schema := benchStoredSchema(sys, "Orders")
	key := benchKey(b, "o_totalprice", schema)[0]
	all, err := exec.Run(exec.NewScan(tbl, schema), &exec.EvalContext{Now: time.Unix(0, 0)}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		in   func() exec.Operator
	}{
		{"scan", func() exec.Operator { return exec.NewScan(tbl, schema) }},
		{"rows", func() exec.Operator { return exec.NewValues(schema, all.Rows) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			runExecBench(b, func() exec.Operator {
				return &exec.Sort{Child: v.in(), Keys: []exec.Expr{{Col: key}}, Desc: []bool{true}}
			})
		})
	}
}

// BenchmarkExecAggregate groups 15,000 rows (key, key, float) into 25 and
// into 1,500 groups with COUNT(*) and a float SUM, and sorts the 1,500 for
// their top 10 — the shapes of the end-to-end benchmark's agg_nation and
// agg_top. The input is a row list, so what is timed is the aggregate.
func BenchmarkExecAggregate(b *testing.B) {
	in := exec.NewSchema(
		exec.Col{Binding: "t", Name: "few", Kind: sqltypes.KindInt},
		exec.Col{Binding: "t", Name: "many", Kind: sqltypes.KindInt},
		exec.Col{Binding: "t", Name: "amount", Kind: sqltypes.KindFloat})
	rows := make([]sqltypes.Row, 15000)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i % 25)), sqltypes.NewInt(int64(i * 7919 % 1500)), sqltypes.NewFloat(float64(i%977) + 0.25)}
	}
	aggregate := func(key int) *exec.Aggregate {
		return &exec.Aggregate{
			Child:     exec.NewValues(in, rows),
			GroupCols: []int{key},
			Aggs:      []exec.AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: exec.Expr{Col: 2}}},
			Out: exec.NewSchema(in.Cols[key],
				exec.Col{Name: "n", Kind: sqltypes.KindInt}, exec.Col{Name: "total", Kind: sqltypes.KindFloat}),
		}
	}
	for _, v := range []struct {
		name  string
		build func() exec.Operator
	}{
		{"low-card", func() exec.Operator { return aggregate(0) }},
		{"high-card", func() exec.Operator { return aggregate(1) }},
		{"topn", func() exec.Operator {
			return &exec.Limit{N: 10, Child: &exec.Sort{Child: aggregate(1), Keys: []exec.Expr{{Col: 2}}, Desc: []bool{true}, TopN: 10}}
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			runExecBench(b, v.build)
			// Throughput in input rows, not in the groups that come out.
			b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkExecScanMetered re-runs the serial Orders scan with the metrics
// and lifecycle-tracing hot paths engaged — one counter increment and one
// histogram observation per batch, plus a sampled tracer Begin/Finish per
// scan (1 in 8, the production default) — to show instrumentation costs
// < 5% of rows/sec versus BenchmarkExecScan/serial. Compare the two in
// BENCH_exec.json.
func BenchmarkExecScanMetered(b *testing.B) {
	sys := execBenchSystem(b)
	tbl := sys.Backend.Table("Orders")
	schema := benchStoredSchema(sys, "Orders")
	reg := obs.NewRegistry()
	batches := reg.Counter("bench_scan_batches_total")
	sizes := reg.Histogram("bench_scan_batch_rows")
	tracer := obs.NewTracer(reg, obs.DefaultSampleEvery, 256)
	ctx := &exec.EvalContext{Now: time.Unix(0, 0)}
	var trace obs.QueryTrace
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		_, qt := tracer.Begin("SELECT * FROM Orders", false, &trace)
		op := exec.NewScan(tbl, schema)
		if err := op.Open(ctx); err != nil {
			b.Fatal(err)
		}
		rows = 0
		for {
			// Same drain as the unmetered scan benchmark, plus the per-batch
			// metric touches under test.
			cb, more, err := op.NextVec()
			if err != nil {
				b.Fatal(err)
			}
			if !more {
				break
			}
			rows += cb.NumActive()
			batches.Inc()
			sizes.Observe(int64(cb.NumActive()))
		}
		if err := op.Close(); err != nil {
			b.Fatal(err)
		}
		qt.Finish(false)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/sec, "rows/sec")
	}
}

// TestMetricsHotPathZeroAlloc pins the invariant the metered scan benchmark
// relies on: counter increments and histogram observations — including
// through a pre-resolved labeled counter — allocate nothing.
func TestMetricsHotPathZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("hot_counter_total")
	h := reg.Histogram("hot_latency_ns")
	lc := reg.CounterVec("hot_labeled_total", "region").With("1")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(4096)
		h.ObserveDuration(17 * time.Microsecond)
		lc.Inc()
	}); allocs != 0 {
		t.Fatalf("metrics hot path allocated %.1f allocs/op; want 0", allocs)
	}
}

// BenchmarkExecGuardedSwitch executes a currency-guarded point query down
// both guard outcomes — a loose bound the local branch satisfies and a tight
// bound that forces remote fallback — into a region ledger, and reports its
// pick ratio, the staleness the guard observed, and the currency-SLO view of
// the same decisions (within-bound ratio and remaining error budget), the
// numbers scripts/bench.sh lifts into BENCH_exec.json.
func BenchmarkExecGuardedSwitch(b *testing.B) {
	sys := benchSystem(b)
	q := harness.GuardQueries()[0]
	plans := make([]*opt.Plan, 2)
	for i, sql := range []string{q.Fresh, q.Stale} {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			b.Fatal(err)
		}
		plan, _, err := sys.Cache.Plan(sel, opt.Options{ForceLocal: true})
		if err != nil {
			b.Fatal(err)
		}
		plans[i] = plan
	}
	reg := obs.NewRegistry()
	ledger := obs.NewRegionLedger(reg, sys.Clock.Now())
	ctx := &exec.EvalContext{
		Now:     sys.Clock.Now(),
		OnGuard: func(g exec.GuardDecision) { ledger.Observe(g.GuardEvent) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			root, err := plan.Build()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Run(root, ctx, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	var local, total int64
	for _, p := range ledger.Snapshot(sys.Clock.Now()) {
		local, total = local+p.Local, total+p.Queries
	}
	if total > 0 {
		b.ReportMetric(float64(local)/float64(total), "local_ratio")
	}
	stale := reg.Histogram("guard_staleness_ns")
	b.ReportMetric(float64(stale.Quantile(0.50))/1e6, "stale_p50_ms")
	b.ReportMetric(float64(stale.Quantile(0.95))/1e6, "stale_p95_ms")
	b.ReportMetric(float64(stale.Quantile(0.99))/1e6, "stale_p99_ms")
	if snap := ledger.SLO(); len(snap.Regions) > 0 {
		within, budget := 1.0, 1.0
		for _, r := range snap.Regions {
			within, budget = min(within, r.WithinRatio), min(budget, r.ErrorBudget)
		}
		b.ReportMetric(within, "slo_within_ratio")
		b.ReportMetric(budget, "slo_error_budget")
	}
}

// BenchmarkExecAutotuneShift runs the workload bound-mix shift scenario
// with closed-loop autotuning enabled and reports the loop's activity and
// the post-shift serve quality — the numbers scripts/bench.sh lifts into
// BENCH_exec.json and harness.CheckBench gates on (the loop must retune
// and the post-shift SLO must recover).
func BenchmarkExecAutotuneShift(b *testing.B) {
	cfg := harness.DefaultShiftConfig()
	// Compact arm (same sizing as the harness shift tests): half the run,
	// still burns and fully recovers the budget.
	cfg.Duration = 160 * time.Second
	cfg.ShiftAt = 60 * time.Second
	cfg.UpdateInterval = 30 * time.Second
	cfg.SLOWindow = 128
	cfg.TunerCadence = tuner.DefaultCadence
	cfg.Autotune = true
	var rep *harness.ShiftReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = harness.RunShift(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Recovered {
		b.Fatalf("budget never recovered: final %.3f vs pre-shift %.3f",
			rep.FinalBudget, rep.PreShiftBudget)
	}
	b.ReportMetric(float64(rep.Retunes), "retunes_total")
	b.ReportMetric(rep.PostShiftWithinRatio, "post_shift_slo_within_ratio")
	b.ReportMetric(rep.FinalBudget, "slo_error_budget")
}

// BenchmarkRegionTuner measures the tuner's optimization cost.
func BenchmarkRegionTuner(b *testing.B) {
	w := tuner.Workload{
		QueriesPerSecond: 50,
		Bounds: []tuner.BoundShare{
			{Bound: 10 * time.Second, Weight: 0.3},
			{Bound: time.Minute, Weight: 0.3},
			{Bound: 10 * time.Minute, Weight: 0.4},
		},
	}
	c := tuner.Costs{RefreshCost: 10, RemotePenalty: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.Tune(w, c, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
