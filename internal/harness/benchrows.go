package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// BenchRow is one benchmark of BENCH_exec.json and BENCH_baseline.json. A
// column the benchmark does not report is null.
type BenchRow struct {
	Name            string   `json:"name"`
	NsOp            float64  `json:"ns_op"`
	RowsPerSec      *float64 `json:"rows_per_sec"`
	BOp             *float64 `json:"B_op"`
	AllocsOp        *float64 `json:"allocs_op"`
	GuardLocalRatio *float64 `json:"guard_local_ratio"`
	StaleP50MS      *float64 `json:"stale_p50_ms"`
	StaleP95MS      *float64 `json:"stale_p95_ms"`
	StaleP99MS      *float64 `json:"stale_p99_ms"`
	SLOWithinRatio  *float64 `json:"slo_within_ratio"`
	SLOErrorBudget  *float64 `json:"slo_error_budget"`
	RetunesTotal    *float64 `json:"retunes_total"`
	PostShiftWithin *float64 `json:"post_shift_slo_within_ratio"`
}

// columns maps a unit of a `go test -bench` line to the row's column.
func (r *BenchRow) columns() map[string]**float64 {
	return map[string]**float64{
		"rows/sec": &r.RowsPerSec, "B/op": &r.BOp, "allocs/op": &r.AllocsOp,
		"local_ratio": &r.GuardLocalRatio, "stale_p50_ms": &r.StaleP50MS,
		"stale_p95_ms": &r.StaleP95MS, "stale_p99_ms": &r.StaleP99MS,
		"slo_within_ratio": &r.SLOWithinRatio, "slo_error_budget": &r.SLOErrorBudget,
		"retunes_total": &r.RetunesTotal, "post_shift_slo_within_ratio": &r.PostShiftWithin,
	}
}

var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// multiCPU is the benchmark scripts/bench.sh runs last, at -cpu 1 and 2.
const multiCPU = "BenchmarkEndToEndQuery/local-point-parallel"

// ReadBenchText reads the result lines of a `go test -bench` transcript:
// "Name  iterations  value unit  value unit ...". With GOMAXPROCS > 1 Go
// appends -GOMAXPROCS to every name; a suffix the first row and all others
// share is that one and is dropped, so local-point-2 reads local-point while
// parallel-4 (a sub-benchmark's own name beside serial) stays, and the gates
// and the baseline compare by exact name on any host. multiCPU's rows keep
// the -N of their -cpu value (none at 1). The rows of one name (a benchmark
// run with -count N) fold into one, in the place of the first, each column
// the median of the rows that report it.
func ReadBenchText(text string) ([]BenchRow, error) {
	var names []string
	runs := map[string]map[string][]float64{} // name → unit → one value per run
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		if runs[f[0]] == nil {
			names, runs[f[0]] = append(names, f[0]), map[string][]float64{}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench text: %s: %s %s: %w", f[0], f[i], f[i+1], err)
			}
			runs[f[0]][f[i+1]] = append(runs[f[0]][f[i+1]], v)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("bench text: no benchmark lines")
	}
	suffix := procsSuffix.FindString(names[0])
	for _, name := range names {
		if !strings.HasSuffix(name, suffix) && !strings.HasPrefix(name, multiCPU) {
			suffix = ""
		}
	}
	rows := make([]BenchRow, len(names))
	for i, name := range names {
		r := &rows[i]
		r.Name, r.NsOp = strings.TrimSuffix(name, suffix), median(runs[name]["ns/op"])
		if strings.HasPrefix(name, multiCPU) {
			r.Name = name
		}
		for unit, col := range r.columns() {
			if vs := runs[name][unit]; vs != nil {
				m := median(vs)
				*col = &m
			}
		}
	}
	return rows, nil
}

// median returns the middle of vs, the mean of the two middle values when
// their count is even; it sorts vs.
func median(vs []float64) float64 {
	slices.Sort(vs)
	return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
}

// allocCeilings holds allocs/op of the named benchmark under a ceiling.
var allocCeilings = []struct {
	name string
	max  float64
}{
	// No join allocates per match or per probe row: the hash join ran at
	// ~412,600 allocs/op before the vectorized rebuild, the index-loop and
	// merge joins built one joined row per match (8,282 and 157,514). Each op
	// builds a fresh tree, whose scans copy survivors into vectors that grow
	// on the first run (a reused tree pays this once): 199/46/48 became
	// 281/212/309. Since a gather by index list grows its vector once per
	// call and the merge join copies its right side into lanes (not one row
	// arena per batch, 10.2 MB/op), 193/104/136. Ceilings are ~1.5x these.
	{"BenchmarkExecHashJoin/serial", 290},
	{"BenchmarkExecIndexLoopJoin/serial", 160},
	{"BenchmarkExecMergeJoin/serial", 205},
	// The streaming scan allocates only pooled containers.
	{"BenchmarkExecScan/serial", 100},
	// A reused parallel scan keeps its morsels, exchange and batches: a run
	// at two workers allocates its helper's start (1; 24 while runs built them).
	{"BenchmarkExecFilterScan/parallel-2-reused", 2},
	// A plan-cache hit runs a cached tree: no parse, no print-back, no build,
	// and one query context per session instead of closures per query. The
	// local point read took 92 allocs/op while it did all of that and
	// measures 1, the QueryResult its row is materialized into (3 while the
	// row list and value arena were allocations of their own, 6 before one
	// allocation held the whole result); shipped to the back end, which
	// answers from a template of the statement's shape (106 while it parsed
	// and planned every one) into one reply, 3 (8 while the reply was five).
	// End-to-end ceilings are the count plus two.
	{"BenchmarkEndToEndQuery/local-point", 3},
	{"BenchmarkEndToEndQuery/remote-point", 5},
	// A new text of a known shape is scanned, bound to the shape's template
	// and run through a tree another statement left: the canonical text and
	// the entry, which holds its literals, on top of a hit and the text's
	// own making (6 and 11 measured; 9 and 12 while the literals were a copy
	// and the point row took its row list and arena), where parse, print and
	// optimize took some 230 and 1,400.
	{"BenchmarkEndToEndQuery/shape-hit", 8},
	{"BenchmarkEndToEndQuery/shape-hit-join", 13},
	// Forwarded DML runs from a back-end template (7 and 11; 29, 53 parsed).
	{"BenchmarkEndToEndQuery/update-by-key", 9},
	{"BenchmarkEndToEndQuery/insert-delete", 13},
	// The hash aggregate allocates per run and per table doubling, never per
	// row or per group: the row-at-a-time operator it replaced took one
	// string key and one map probe per input row (15,000 here). Ceilings are
	// 1.5x the counts of a freshly built tree.
	{"BenchmarkExecAggregate/low-card", 200},
	{"BenchmarkExecAggregate/high-card", 270},
	{"BenchmarkExecAggregate/topn", 300},
	// ANALYZE records each value's class in per-column buffers, which allocate
	// as they grow, never per value: the row fold it replaced took one Key
	// string per value (662,955 at scale 0.1). 250 measured.
	{"BenchmarkAnalyze", 375},
}

// Baseline bands: allocs/op is a counted quantity — identical across machines
// for the same code — so its band is tight; rows/sec depends on the runner,
// so its band only catches order-of-magnitude collapses.
const (
	allocTolerance = 0.10
	rpsTolerance   = 0.60
)

var benchName = regexp.MustCompile(`^Benchmark(Exec|EndToEndQuery|OptimizerConsistencyChecking|ReplicationApply|Analyze)`)

// CheckBench holds rows to the schema of BENCH_exec.json, to the absolute
// gates — the allocation ceilings, parallel scaling that does not fall from
// 2 to 4 workers, an autotuner that acts and recovers the SLO — and to the
// bands around baseline, and names the first benchmark and column that break
// one.
func CheckBench(rows, baseline []BenchRow) error {
	byName := map[string]BenchRow{}
	for _, r := range rows {
		byName[r.Name] = r
		unit := func(p *float64) bool { return p == nil || inUnit(*p) }
		staleOrdered := r.StaleP50MS == nil || r.StaleP95MS == nil || r.StaleP99MS == nil ||
			(*r.StaleP50MS <= *r.StaleP95MS && *r.StaleP95MS <= *r.StaleP99MS)
		if err := firstBroken("bench: "+r.Name,
			inv{"name", benchName.MatchString(r.Name)},
			// Without -benchmem the allocation gates would have nothing to read.
			inv{"allocs_op", r.AllocsOp != nil}, inv{"B_op", r.BOp != nil},
			inv{"guard_local_ratio", unit(r.GuardLocalRatio)},
			inv{"stale_p50_ms <= stale_p95_ms <= stale_p99_ms", staleOrdered},
			inv{"slo_within_ratio", unit(r.SLOWithinRatio)}, inv{"slo_error_budget", unit(r.SLOErrorBudget)},
			inv{"retunes_total", r.RetunesTotal == nil || *r.RetunesTotal >= 0},
			inv{"post_shift_slo_within_ratio", unit(r.PostShiftWithin)},
		); err != nil {
			return err
		}
	}
	// The guarded SwitchUnion benchmark carries the C&C columns — pick ratio,
	// staleness at guard time, the SLO view of the same decisions.
	guarded := byName["BenchmarkExecGuardedSwitch"]
	if err := firstBroken("bench: BenchmarkExecGuardedSwitch",
		inv{"guard_local_ratio, stale_p95_ms missing", guarded.GuardLocalRatio != nil && guarded.StaleP95MS != nil},
		inv{"slo_within_ratio, slo_error_budget missing", guarded.SLOWithinRatio != nil && guarded.SLOErrorBudget != nil},
	); err != nil {
		return err
	}
	for _, c := range allocCeilings {
		if r, ok := byName[c.name]; !ok {
			return fmt.Errorf("bench: missing benchmark %s", c.name)
		} else if *r.AllocsOp > c.max {
			return fmt.Errorf("bench: %s: allocs_op regressed: %v > %v", c.name, *r.AllocsOp, c.max)
		}
	}
	// rows/sec at parallel-4 must be at least 90% of parallel-2:
	// equal-or-better scaling, with headroom for run-to-run noise.
	for _, name := range []string{"BenchmarkExecScan", "BenchmarkExecFilterScan"} {
		p2, p4 := byName[name+"/parallel-2"].RowsPerSec, byName[name+"/parallel-4"].RowsPerSec
		if p2 == nil || p4 == nil {
			return fmt.Errorf("bench: %s: missing parallel-2/parallel-4 rows_per_sec", name)
		}
		if *p4 < 0.9**p2 {
			return fmt.Errorf("bench: %s: parallel scaling non-monotone: parallel-4 rows_per_sec %v < 0.9 * parallel-2 %v", name, *p4, *p2)
		}
	}
	// The shift benchmark's closed loop must actually act (one max-step round
	// cannot cross the 4x cap) and a majority of post-shift serves must be
	// within bound (the no-autotune arm sits under 10%).
	shift := byName["BenchmarkExecAutotuneShift"]
	if err := firstBroken("bench: BenchmarkExecAutotuneShift",
		inv{"retunes_total < 2: autotuner inactive", shift.RetunesTotal != nil && *shift.RetunesTotal >= 2},
		inv{"post_shift_slo_within_ratio < 0.5: SLO did not recover", shift.PostShiftWithin != nil && *shift.PostShiftWithin >= 0.5},
	); err != nil {
		return err
	}

	overlap := 0
	for _, b := range baseline {
		r, ok := byName[b.Name]
		// The parallel-N variants start real workers on a multi-core host and
		// allocate per exchanged batch: their numbers are the host's, not the
		// code's, and the scaling gate above is what holds them.
		if !ok || strings.Contains(b.Name, "/parallel-") {
			continue
		}
		overlap++
		if b.AllocsOp != nil && *r.AllocsOp > *b.AllocsOp*(1+allocTolerance) {
			return fmt.Errorf("bench: %s: allocs_op regressed vs baseline: %v > %v * %v", r.Name, *r.AllocsOp, *b.AllocsOp, 1+allocTolerance)
		}
		if b.RowsPerSec != nil && r.RowsPerSec != nil && *r.RowsPerSec < *b.RowsPerSec*(1-rpsTolerance) {
			return fmt.Errorf("bench: %s: rows_per_sec regressed vs baseline: %v < %v * %v", r.Name, *r.RowsPerSec, *b.RowsPerSec, 1-rpsTolerance)
		}
	}
	if overlap == 0 {
		return fmt.Errorf("bench: no benchmark in common with the baseline")
	}
	return nil
}

// RunBenchReport turns the `go test -bench` transcript at textPath into
// outPath (BENCH_exec.json: an array of BenchRow) and gates it, bands around
// baselinePath's rows included; it writes the file first, to be read after.
func RunBenchReport(w io.Writer, textPath, outPath, baselinePath string) error {
	text, err := os.ReadFile(textPath)
	if err != nil {
		return err
	}
	rows, err := ReadBenchText(string(text))
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d benchmarks)\n", outPath, len(rows))

	var baseline []BenchRow
	if base, err := os.ReadFile(baselinePath); err != nil {
		return err
	} else if err := json.Unmarshal(base, &baseline); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	if err := CheckBench(rows, baseline); err != nil {
		return err
	}
	fmt.Fprintf(w, "bench: %s passes its gates, within tolerance of %s (allocs +%v, rows/sec -%v)\n",
		outPath, baselinePath, allocTolerance, rpsTolerance)
	return nil
}
