#!/usr/bin/env bash
# Validates the schema of BENCH_exec.json (written by scripts/bench.sh) so
# CI fails loudly when the bench output drifts instead of silently uploading
# garbage.
#
# Usage: scripts/check_bench.sh [compare] [file [baseline]]
#   default: schema + absolute performance gates on BENCH_exec.json
#   compare: additionally diff against the committed BENCH_baseline.json
#            with tolerance bands — allocs/op tight (deterministic counts,
#            ALLOC_TOL, default 10%), rows/sec loose (machine-dependent,
#            RPS_TOL, default 60% drop) — so a perf regression fails CI even
#            when it stays under the absolute ceilings.
set -euo pipefail

cd "$(dirname "$0")/.."
compare=0
if [[ "${1:-}" == "compare" ]]; then
  compare=1
  shift
fi
file="${1:-BENCH_exec.json}"
baseline="${2:-BENCH_baseline.json}"

[ -f "$file" ] || { echo "check_bench: $file not found" >&2; exit 1; }

jq -e '
  # A non-empty array of benchmark entries...
  (type == "array" and length > 0)
  # ...each with a name and a numeric ns/op...
  and all(.[];
    (.name | type == "string" and test("^Benchmark(Exec|EndToEndQuery|OptimizerConsistencyChecking)"))
    and (.ns_op | type == "number")
    and (.rows_per_sec | type == "number" or . == null)
    and (.B_op | type == "number" or . == null)
    and (.allocs_op | type == "number" or . == null)
    # ...a guard-branch pick ratio in [0, 1] where reported...
    and (.guard_local_ratio | (type == "number" and . >= 0 and . <= 1) or . == null)
    # ...and monotone staleness percentiles where reported.
    and (.stale_p50_ms | type == "number" or . == null)
    and (.stale_p95_ms | type == "number" or . == null)
    and (.stale_p99_ms | type == "number" or . == null)
    and (if (.stale_p50_ms != null and .stale_p95_ms != null and .stale_p99_ms != null)
         then .stale_p50_ms <= .stale_p95_ms and .stale_p95_ms <= .stale_p99_ms
         else true end)
    # ...and per-region currency-SLO figures in [0, 1] where reported.
    and (.slo_within_ratio | (type == "number" and . >= 0 and . <= 1) or . == null)
    and (.slo_error_budget | (type == "number" and . >= 0 and . <= 1) or . == null)
    # ...and autotuner shift-scenario figures where reported: a non-negative
    # retune count and a post-shift within-bound ratio in [0, 1].
    and (.retunes_total | (type == "number" and . >= 0) or . == null)
    and (.post_shift_slo_within_ratio | (type == "number" and . >= 0 and . <= 1) or . == null)
  )
  # The guarded SwitchUnion benchmark must be present with its C&C columns.
  and any(.[]; .guard_local_ratio != null and .stale_p95_ms != null)
  # The SLO view of the same guard decisions must ride along.
  and any(.[]; .slo_within_ratio != null and .slo_error_budget != null)
  # The autotune shift benchmark must be present with the loop columns.
  and any(.[]; .retunes_total != null and .post_shift_slo_within_ratio != null)
' "$file" > /dev/null

# --- Performance gates -----------------------------------------------------
# Schema being valid is not enough: the two executor regressions this repo
# has actually shipped — allocation blowups in the join and non-monotone
# parallel scaling — are cheap to catch mechanically, so the gates live here
# rather than in reviewers' heads. Benchmark names may carry a -GOMAXPROCS
# suffix, hence the (-[0-9]+)?$ in the matchers.

# gate_allocs NAME CEILING: allocs/op for the named benchmark must not
# exceed the ceiling.
gate_allocs() {
  jq -e --arg n "$1" --argjson cap "$2" '
    def entry($n): map(select(.name | test("^" + $n + "(-[0-9]+)?$"))) | .[0];
    (entry($n)) as $e
    | if $e == null then ("check_bench: missing benchmark " + $n) | halt_error
      elif $e.allocs_op == null then ("check_bench: " + $n + " has no allocs_op") | halt_error
      elif $e.allocs_op > $cap then
        ("check_bench: " + $n + " allocs/op regressed: \($e.allocs_op) > \($cap)") | halt_error
      else true end
  ' "$file" > /dev/null
}

# gate_monotone BASE: rows/sec at parallel-4 must be at least 90% of
# parallel-2 (equal-or-better scaling, with headroom for run-to-run noise).
gate_monotone() {
  jq -e --arg n "$1" '
    def rps($n): map(select(.name | test("^" + $n + "(-[0-9]+)?$"))) | .[0].rows_per_sec;
    (rps($n + "/parallel-2")) as $p2 | (rps($n + "/parallel-4")) as $p4
    | if $p2 == null or $p4 == null then
        ("check_bench: " + $n + " missing parallel-2/parallel-4 rows/sec") | halt_error
      elif $p4 < 0.9 * $p2 then
        ("check_bench: " + $n + " parallel scaling non-monotone: parallel-4 \($p4) < 0.9 * parallel-2 \($p2)") | halt_error
      else true end
  ' "$file" > /dev/null
}

# gate_autotune NAME: the shift benchmark's closed loop must actually act
# (at least 2 retunes — one max-step round cannot cross the 4x cap) and the
# post-shift SLO must recover (a majority of post-shift serves within
# bound; the no-autotune arm sits under 10%).
gate_autotune() {
  jq -e --arg n "$1" '
    def entry($n): map(select(.name | test("^" + $n + "(-[0-9]+)?$"))) | .[0];
    (entry($n)) as $e
    | if $e == null then ("check_bench: missing benchmark " + $n) | halt_error
      elif $e.retunes_total == null or $e.retunes_total < 2 then
        ("check_bench: " + $n + " autotuner inactive: retunes_total \($e.retunes_total)") | halt_error
      elif $e.post_shift_slo_within_ratio == null or $e.post_shift_slo_within_ratio < 0.5 then
        ("check_bench: " + $n + " post-shift SLO did not recover: \($e.post_shift_slo_within_ratio)") | halt_error
      else true end
  ' "$file" > /dev/null
}

# No join allocates per match or per probe row: matches leave as pair lists
# gathered into reused vectors. The hash join ran at ~412,600 allocs/op
# before the vectorized rebuild and measures 199 now (its build side); the
# index-loop and merge joins built one joined row per match (8,282 and
# 157,514 on these benchmarks) and measure 46 and 48. Ceilings are ~1.5x the
# counts of a freshly built tree, the hash join's as the issue set it.
gate_allocs 'BenchmarkExecHashJoin/serial' 500
gate_allocs 'BenchmarkExecIndexLoopJoin/serial' 75
gate_allocs 'BenchmarkExecMergeJoin/serial' 75
# The streaming scan allocates only pooled containers.
gate_allocs 'BenchmarkExecScan/serial' 100
# A plan-cache hit runs a cached tree: no parse, no print-back, no build.
# The local point read took 92 allocs/op while it did all three; the
# ceiling is its count now plus two.
gate_allocs 'BenchmarkEndToEndQuery/local-point' 14
# A new text of a known shape is scanned, bound to the shape's template and
# run through a tree another statement left: the canonical text, the entry
# and its parameters on top of a hit (17 and 23 measured), where parse, print
# and optimize took some 230 and 1,400. A shipped statement is answered the
# same way at the back end (106 while it parsed and planned every one).
gate_allocs 'BenchmarkEndToEndQuery/shape-hit' 20
gate_allocs 'BenchmarkEndToEndQuery/shape-hit-join' 40
gate_allocs 'BenchmarkEndToEndQuery/remote-point' 60
# The hash aggregate allocates per run and per table doubling, never per
# row or per group: the row-at-a-time operator it replaced took one string
# key and one map probe per input row (15,000 here). Ceilings are 1.5x the
# counts of a freshly built tree.
gate_allocs 'BenchmarkExecAggregate/low-card' 200
gate_allocs 'BenchmarkExecAggregate/high-card' 270
gate_allocs 'BenchmarkExecAggregate/topn' 300
gate_monotone 'BenchmarkExecScan'
gate_monotone 'BenchmarkExecFilterScan'
gate_autotune 'BenchmarkExecAutotuneShift'

# --- Baseline comparison ---------------------------------------------------
# Relative gates against the committed baseline. allocs/op is a counted
# quantity — identical across machines for the same code — so its band is
# tight. rows/sec depends on the runner, so its band only catches order-of-
# magnitude collapses; the absolute gates above carry the precise limits.
if [ "$compare" = 1 ]; then
  [ -f "$baseline" ] || { echo "check_bench: baseline $baseline not found" >&2; exit 1; }
  alloc_tol="${ALLOC_TOL:-0.10}"
  rps_tol="${RPS_TOL:-0.60}"
  jq -e -n --slurpfile cur "$file" --slurpfile base "$baseline" \
        --argjson atol "$alloc_tol" --argjson rtol "$rps_tol" '
    def strip: sub("-[0-9]+$"; "");
    ($cur[0]  | map({(.name | strip): .}) | add) as $c
    | ($base[0] | map({(.name | strip): .}) | add) as $b
    | [$b | keys[] | select($c[.] != null)] as $names
    | if ($names | length) == 0 then
        "check_bench: no overlapping benchmarks between \($cur) and baseline" | halt_error
      else
        all($names[];
          . as $n | $b[$n] as $be | $c[$n] as $ce
          | (if $be.allocs_op != null and $ce.allocs_op != null
               and $ce.allocs_op > $be.allocs_op * (1 + $atol) then
               ("check_bench: \($n) allocs/op regressed vs baseline: " +
                "\($ce.allocs_op) > \($be.allocs_op) * \(1 + $atol)") | halt_error
             else true end)
          and
            (if $be.rows_per_sec != null and $ce.rows_per_sec != null
               and $ce.rows_per_sec < $be.rows_per_sec * (1 - $rtol) then
               ("check_bench: \($n) rows/sec regressed vs baseline: " +
                "\($ce.rows_per_sec) < \($be.rows_per_sec) * \(1 - $rtol)") | halt_error
             else true end)
        )
      end
  ' > /dev/null
  echo "check_bench: $file within tolerance of $baseline (allocs +${ALLOC_TOL:-0.10}, rows/sec -${RPS_TOL:-0.60})"
fi

echo "check_bench: $file ok ($(jq length "$file") benchmark(s))"
