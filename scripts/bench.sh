#!/usr/bin/env bash
# Runs the executor benchmarks (serial vs morsel-parallel, plus the
# guarded SwitchUnion benchmark), the end-to-end session benchmark
# (BenchmarkEndToEndQuery: a plan-cache-hit point read answered locally, one
# shipped to the back end, and a point read and a join that are new texts of
# a known shape) and the price of a true miss
# (BenchmarkOptimizerConsistencyChecking: one C&C optimize), and writes
# BENCH_exec.json in the repo root
# with ns/op, rows/sec, B/op and allocs/op per benchmark, and — where the
# benchmark reports them — the guard-branch pick ratio, the staleness
# percentiles observed at guard time, the currency-SLO view of the same
# guard decisions (within-bound ratio, remaining error budget), and the
# closed-loop autotuner's shift-scenario outcome (retunes, post-shift
# within-bound ratio). Usage: scripts/bench.sh [benchtime], default 2s.
set -euo pipefail

cd "$(dirname "$0")/.."
benchtime="${1:-2s}"
out="BENCH_exec.json"

raw=$(go test -run '^$' -bench 'BenchmarkExec|BenchmarkEndToEndQuery|BenchmarkOptimizerConsistencyChecking' -benchtime "$benchtime" -benchmem .)
echo "$raw"

echo "$raw" | awk '
BEGIN { print "["; first = 1 }
/^Benchmark(Exec|EndToEndQuery|OptimizerConsistencyChecking)/ {
    # Names keep any -N suffix verbatim: Go only appends a -GOMAXPROCS
    # suffix when GOMAXPROCS > 1, and sub-benchmark names like parallel-4
    # are indistinguishable from it.
    name = $1
    ns = ""; rps = ""; bop = ""; aop = ""
    ratio = ""; p50 = ""; p95 = ""; p99 = ""; within = ""; budget = ""
    retunes = ""; pswithin = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")            ns     = $i
        if ($(i+1) == "rows/sec")         rps    = $i
        if ($(i+1) == "B/op")             bop    = $i
        if ($(i+1) == "allocs/op")        aop    = $i
        if ($(i+1) == "local_ratio")      ratio  = $i
        if ($(i+1) == "stale_p50_ms")     p50    = $i
        if ($(i+1) == "stale_p95_ms")     p95    = $i
        if ($(i+1) == "stale_p99_ms")     p99    = $i
        if ($(i+1) == "slo_within_ratio") within = $i
        if ($(i+1) == "slo_error_budget") budget = $i
        if ($(i+1) == "retunes_total")    retunes = $i
        if ($(i+1) == "post_shift_slo_within_ratio") pswithin = $i
    }
    if (!first) print ","
    first = 0
    printf "  {\"name\": \"%s\", \"ns_op\": %s, \"rows_per_sec\": %s, \"B_op\": %s, \"allocs_op\": %s, \"guard_local_ratio\": %s, \"stale_p50_ms\": %s, \"stale_p95_ms\": %s, \"stale_p99_ms\": %s, \"slo_within_ratio\": %s, \"slo_error_budget\": %s, \"retunes_total\": %s, \"post_shift_slo_within_ratio\": %s}", \
        name, ns == "" ? "null" : ns, rps == "" ? "null" : rps, \
        bop == "" ? "null" : bop, aop == "" ? "null" : aop, \
        ratio == "" ? "null" : ratio, p50 == "" ? "null" : p50, \
        p95 == "" ? "null" : p95, p99 == "" ? "null" : p99, \
        within == "" ? "null" : within, budget == "" ? "null" : budget, \
        retunes == "" ? "null" : retunes, pswithin == "" ? "null" : pswithin
}
END { print "\n]" }
' > "$out"

echo "wrote $out"
