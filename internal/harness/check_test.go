package harness

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/audit"
	"relaxedcc/internal/core"
)

// clone deep-copies a report through its JSON, so a case can break one
// field without touching the next case's input.
func clone[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// wantNamed requires err to be non-nil and to name the broken field.
func wantNamed(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Errorf("gate passed; want an error naming %q", field)
	} else if !strings.Contains(err.Error(), field) {
		t.Errorf("error %q does not name %q", err, field)
	}
}

// TestLoadCheckBites: the gate RunLoadReport applies passes a real report
// and names the field in every report that breaks one invariant.
func TestLoadCheckBites(t *testing.T) {
	good, err := RunLoad(tinyLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Check(); err != nil {
		t.Fatalf("real report fails its own check: %v", err)
	}
	for _, c := range []struct {
		field  string
		mutate func(r *LoadReport)
	}{
		{"offered_qps not strictly ascending", func(r *LoadReport) { r.Steps[2].OfferedQPS = r.Steps[0].OfferedQPS / 2 }},
		{"offered_qps not strictly ascending", func(r *LoadReport) { r.Steps[1].OfferedQPS = r.Steps[0].OfferedQPS }},
		{"fewer than 3", func(r *LoadReport) { r.Steps = r.Steps[:2] }},
		{"latency_p99_ns > latency_p999_ns", func(r *LoadReport) { r.Steps[1].LatencyP99NS = r.Steps[1].LatencyP999NS + 1 }},
		{"latency_p999_ns > latency_max_ns", func(r *LoadReport) { r.Steps[1].LatencyMaxNS = r.Steps[1].LatencyP999NS - 1 }},
		{"staleness_p95_ns > staleness_p99_ns", func(r *LoadReport) { r.Steps[0].StalenessP95NS = r.Steps[0].StalenessMaxNS + 1 }},
		{"answered + failed != queries", func(r *LoadReport) { r.Steps[0].Answered-- }},
		{"guard_local_ratio", func(r *LoadReport) { r.Steps[0].GuardLocalRatio = 1.2 }},
		{"degraded_ratio", func(r *LoadReport) { r.Steps[2].DegradedRatio = -0.1 }},
		{"knee_qps", func(r *LoadReport) { r.KneeQPS = r.Steps[0].OfferedQPS + 1 }},
		{"tenant gold: slo_error_budget", func(r *LoadReport) { r.Steps[1].Tenants[0].SLOErrorBudget = 1.2 }},
		{"tenant silver: within", func(r *LoadReport) { r.Steps[1].Tenants[1].Within = r.Steps[1].Tenants[1].Queries + 1 }},
		{"tenants", func(r *LoadReport) { r.Steps[2].Tenants = nil }},
		{"regions", func(r *LoadReport) { r.Steps[2].Regions = nil }},
		{"slo", func(r *LoadReport) { r.SLO.Regions = nil }},
	} {
		r := clone(t, *good)
		c.mutate(&r)
		wantNamed(t, r.Check(), c.field)
	}
}

// TestLoadReportGatesItself: RunLoadReport returns the check's error and
// writes no file for a sweep whose report breaks the schema — rccbench -load
// exits non-zero on it.
func TestLoadReportGatesItself(t *testing.T) {
	cfg := tinyLoadConfig()
	cfg.Steps = cfg.Steps[:2]
	path := t.TempDir() + "/BENCH_load.json"
	var out strings.Builder
	wantNamed(t, RunLoadReport(&out, cfg, path), "fewer than 3")
	if _, err := os.Stat(path); err == nil {
		t.Errorf("%s written for a report that failed its check", path)
	}
}

// auditedRun runs cfg and returns its auditor's ledger and the
// offline replay of the same run.
func auditedRun(t *testing.T, cfg ChaosConfig) (s, replay audit.Summary) {
	t.Helper()
	var aud *audit.Auditor
	cfg.OnSystem = func(sys *core.System) { aud = sys.Audit() }
	if _, err := RunChaos(cfg); err != nil {
		t.Fatal(err)
	}
	if err := CheckAudit(aud, cfg.GuardLieStart > 0); err != nil {
		t.Fatalf("real run fails its own audit gate: %v", err)
	}
	return aud.Summary(), aud.Replay()
}

// TestAuditCheckBites: the gate an audited rccbench run applies to itself.
// The honest schedule passes the honest gate and fails the broken-guard one
// (a run that was supposed to be caught lying and was not); the broken
// schedule the other way round; and a ledger with one field broken is
// refused by name.
func TestAuditCheckBites(t *testing.T) {
	honestCfg := DefaultChaosConfig()
	honestCfg.Duration = 60 * time.Second
	honest, honestReplay := auditedRun(t, honestCfg)
	broken, brokenReplay := auditedRun(t, BrokenGuardChaosConfig())

	wantNamed(t, checkAudit(honest, honestReplay, true), "broken guard not caught")
	wantNamed(t, checkAudit(broken, brokenReplay, false), "honest run: violations_total")

	for _, c := range []struct {
		field  string
		broken bool
		mutate func(s, replay *audit.Summary)
	}{
		{"dropped_reads", false, func(s, _ *audit.Summary) { s.DroppedReads = 1 }},
		{"!= reads_checked", false, func(s, r *audit.Summary) { s.OK--; r.OK-- }},
		{"violations_total != currency_violations", false, func(s, _ *audit.Summary) { s.ViolationsTotal = 1 }},
		{"honest run: violations_total", false, func(s, r *audit.Summary) {
			s.OK--
			s.CurrencyViolations++
			s.ViolationsTotal++
			r.Tally = s.Tally
		}},
		{"honest run: recent_violations", false, func(s, r *audit.Summary) {
			s.RecentViolations = broken.RecentViolations[:1]
			r.RecentViolations = s.RecentViolations
		}},
		{"offline replay disagrees", false, func(_, r *audit.Summary) { r.Disclosed++ }},
		{"excess_ns != delivered_ns - bound_ns", true, func(s, _ *audit.Summary) { s.RecentViolations[0].ExcessNS++ }},
		{"object", true, func(s, _ *audit.Summary) { s.RecentViolations[1].Object = "" }},
		{"delivered_ns <= bound_ns", true, func(s, _ *audit.Summary) {
			v := &s.RecentViolations[0]
			v.DeliveredNS, v.ExcessNS = v.BoundNS, 0
		}},
	} {
		s, replay := clone(t, honest), clone(t, honestReplay)
		if c.broken {
			s, replay = clone(t, broken), clone(t, brokenReplay)
		}
		c.mutate(&s, &replay)
		wantNamed(t, checkAudit(s, replay, c.broken), c.field)
	}
}

// readBench parses a recorded `go test -bench` transcript from testdata.
func readBench(t *testing.T, file string) []BenchRow {
	t.Helper()
	text, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ReadBenchText(string(text))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func row(t *testing.T, rows []BenchRow, name string) *BenchRow {
	t.Helper()
	for i := range rows {
		if rows[i].Name == name {
			return &rows[i]
		}
	}
	t.Fatalf("no row %s", name)
	return nil
}

// TestReadBenchText: the reader on two recorded transcripts of the same
// benchmarks, GOMAXPROCS=1 (no suffix) and GOMAXPROCS=2 (every name ends in
// -2): both give the same names, a sub-benchmark called parallel-4 keeps its
// own -4 (and parallel-2-reused its name), the point read run at -cpu 1 and
// 2 keeps the 2 of its second run, and custom units land in their columns.
func TestReadBenchText(t *testing.T) {
	one, two := readBench(t, "bench_procs1.txt"), readBench(t, "bench_procs2.txt")
	if len(one) != 33 || len(two) != len(one) {
		t.Fatalf("rows: %d at GOMAXPROCS=1, %d at 2, want 33 each", len(one), len(two))
	}
	for i := range one {
		if one[i].Name != two[i].Name {
			t.Errorf("row %d: %q at GOMAXPROCS=1, %q at 2", i, one[i].Name, two[i].Name)
		}
	}
	for _, rows := range [][]BenchRow{one, two} {
		row(t, rows, "BenchmarkEndToEndQuery/local-point")
		row(t, rows, "BenchmarkExecScan/parallel-4")
		row(t, rows, "BenchmarkExecFilterScan/parallel-2-reused")
		row(t, rows, "BenchmarkEndToEndQuery/local-point-parallel")
		row(t, rows, "BenchmarkEndToEndQuery/local-point-parallel-2")
		if p := row(t, rows, "BenchmarkExecFilterScan/serial"); p.RowsPerSec == nil || *p.RowsPerSec <= 0 || p.NsOp <= 0 {
			t.Errorf("%s: ns_op %v rows_per_sec %v", p.Name, p.NsOp, p.RowsPerSec)
		}
		g := row(t, rows, "BenchmarkExecGuardedSwitch")
		if g.GuardLocalRatio == nil || *g.GuardLocalRatio != 0.5 || g.StaleP95MS == nil || *g.StaleP95MS != 6442 || g.RowsPerSec != nil {
			t.Errorf("%s: local_ratio %v stale_p95_ms %v rows_per_sec %v", g.Name, g.GuardLocalRatio, g.StaleP95MS, g.RowsPerSec)
		}
		if s := row(t, rows, "BenchmarkExecAutotuneShift"); s.RetunesTotal == nil || *s.RetunesTotal != 6 || *s.PostShiftWithin != 0.74 {
			t.Errorf("%s: retunes_total %v", s.Name, s.RetunesTotal)
		}
		if err := CheckBench(rows, one); err != nil {
			t.Errorf("recorded transcript fails the gates: %v", err)
		}
	}
	if _, err := ReadBenchText("PASS\nok  \trelaxedcc\t1.0s\n"); err == nil {
		t.Error("a transcript without benchmark lines read as a report")
	}
}

// TestReadBenchTextFoldsRepeats: the rows of a benchmark run with -count 3
// read as one row in the place of the first, each column the median of its
// runs, once the shared GOMAXPROCS suffix is dropped; a column only some runs
// report is the median of those.
func TestReadBenchTextFoldsRepeats(t *testing.T) {
	rows, err := ReadBenchText(`BenchmarkExecScan/serial-2     	 100	 500 ns/op	 200 rows/sec	 64 B/op	 2 allocs/op
BenchmarkExecScan/parallel-4-2 	 100	 300 ns/op	 900 rows/sec	 96 B/op	 27 allocs/op
BenchmarkExecScan/parallel-4-2 	 100	 100 ns/op	 700 rows/sec	 96 B/op	 29 allocs/op	 0.5 local_ratio
BenchmarkExecScan/parallel-4-2 	 100	 200 ns/op	 800 rows/sec	 96 B/op	 28 allocs/op	 0.7 local_ratio
BenchmarkEndToEndQuery/local-point-parallel-2 	 100	 90 ns/op	 364 B/op	 3 allocs/op
`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.Name)
	}
	if want := []string{"BenchmarkExecScan/serial", "BenchmarkExecScan/parallel-4", "BenchmarkEndToEndQuery/local-point-parallel-2"}; !slices.Equal(names, want) {
		t.Fatalf("rows %q, want %q", names, want)
	}
	p := rows[1]
	if p.NsOp != 200 || *p.RowsPerSec != 800 || *p.AllocsOp != 28 || *p.BOp != 96 || *p.GuardLocalRatio != 0.6 || p.StaleP50MS != nil {
		t.Errorf("folded row = ns_op %v rows_per_sec %v allocs_op %v B_op %v local_ratio %v stale_p50_ms %v, want 200 800 28 96 0.6 nil",
			p.NsOp, *p.RowsPerSec, *p.AllocsOp, *p.BOp, *p.GuardLocalRatio, p.StaleP50MS)
	}
	if s := rows[0]; s.NsOp != 500 || *s.RowsPerSec != 200 {
		t.Errorf("single row = ns_op %v rows_per_sec %v, want it as read", s.NsOp, *s.RowsPerSec)
	}
}

// TestBenchCheckBites: the committed baseline parses into the same struct
// and passes against the recorded run; one column broken per case is refused
// by benchmark and column.
func TestBenchCheckBites(t *testing.T) {
	good := readBench(t, "bench_procs1.txt")
	var baseline []BenchRow
	if b, err := os.ReadFile("../../BENCH_baseline.json"); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &baseline); err != nil {
		t.Fatalf("BENCH_baseline.json: %v", err)
	}
	if err := CheckBench(good, baseline); err != nil {
		t.Fatalf("recorded run against the committed baseline: %v", err)
	}
	for _, c := range []struct {
		want   string
		mutate func(rows []BenchRow) []BenchRow
	}{
		{"BenchmarkEndToEndQuery/local-point: allocs_op regressed: 4 > 3", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkEndToEndQuery/local-point").AllocsOp = 4
			return rows
		}},
		{"BenchmarkAnalyze: allocs_op regressed: 662955 > 375", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkAnalyze").AllocsOp = 662955 // one Key string per value
			return rows
		}},
		{"BenchmarkExecHashJoin/serial: allocs_op regressed", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkExecHashJoin/serial").AllocsOp = 501
			return rows
		}},
		{"BenchmarkExecScan: missing parallel-2/parallel-4", func(rows []BenchRow) []BenchRow {
			i := 0
			for rows[i].Name != "BenchmarkExecScan/parallel-4" {
				i++
			}
			return append(rows[:i], rows[i+1:]...)
		}},
		{"parallel scaling non-monotone", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkExecFilterScan/parallel-4").RowsPerSec = 1000
			return rows
		}},
		{"retunes_total < 2", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkExecAutotuneShift").RetunesTotal = 1
			return rows
		}},
		{"post_shift_slo_within_ratio < 0.5", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkExecAutotuneShift").PostShiftWithin = 0.4
			return rows
		}},
		{"BenchmarkExecAggregate/low-card: allocs_op regressed vs baseline", func(rows []BenchRow) []BenchRow {
			p := row(t, rows, "BenchmarkExecAggregate/low-card").AllocsOp
			*p = float64(int(*p*1.11) + 1) // +11%
			return rows
		}},
		{"BenchmarkExecMergeJoin/serial: rows_per_sec regressed vs baseline", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkExecMergeJoin/serial").RowsPerSec = *row(t, baseline, "BenchmarkExecMergeJoin/serial").RowsPerSec * 0.39 // -61%
			return rows
		}},
		{"BenchmarkExecGuardedSwitch: guard_local_ratio", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkExecGuardedSwitch").GuardLocalRatio = 1.5
			return rows
		}},
		{"BenchmarkExecGuardedSwitch: stale_p50_ms", func(rows []BenchRow) []BenchRow {
			*row(t, rows, "BenchmarkExecGuardedSwitch").StaleP50MS = 7000
			return rows
		}},
		{"BenchmarkExecScan/serial: allocs_op", func(rows []BenchRow) []BenchRow {
			row(t, rows, "BenchmarkExecScan/serial").AllocsOp = nil
			return rows
		}},
		{"BenchmarkResultCache: name", func(rows []BenchRow) []BenchRow {
			row(t, rows, "BenchmarkExecScanMetered").Name = "BenchmarkResultCache"
			return rows
		}},
	} {
		wantNamed(t, CheckBench(c.mutate(clone(t, good)), baseline), c.want)
	}
	wantNamed(t, CheckBench(good, nil), "no benchmark in common")
}
