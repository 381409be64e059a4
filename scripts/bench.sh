#!/usr/bin/env bash
# Runs the executor benchmarks (serial vs morsel-parallel, the guarded
# SwitchUnion and the autotune shift), the end-to-end session benchmark
# (BenchmarkEndToEndQuery; its local-point-parallel row once more at -cpu 1
# and -cpu 2, for two-core scaling; the scan and filter-scan parallel-N rows
# in three one-count passes of their own, so parallel-2 and parallel-4
# alternate, read as the median of the three), the price
# of a true plan-cache miss
# (BenchmarkOptimizerConsistencyChecking), ANALYZE over a scale-0.1 back end
# (BenchmarkAnalyze) and one agent propagation step
# (BenchmarkReplicationApply, 200 ops: each op builds a loaded system outside
# the timer, so a benchtime in seconds would run for minutes), keeps the
# `go test -bench` transcript as BENCH_exec.txt and hands it to `rccbench
# -bench-text`, which writes BENCH_exec.json (harness.BenchRow) and gates it:
# allocation ceilings, parallel scaling, an autotuner that acts, and the
# bands around BENCH_baseline.json (harness.CheckBench).
# Usage: scripts/bench.sh [benchtime], default 2s.
set -euo pipefail

cd "$(dirname "$0")/.."
go test -run '^$' -bench 'BenchmarkExec|BenchmarkEndToEndQuery|BenchmarkOptimizerConsistencyChecking|BenchmarkAnalyze$' \
  -skip '^Benchmark(EndToEndQuery|ExecScan|ExecFilterScan)$/^(local-point-parallel|parallel-)' \
  -benchtime "${1:-2s}" -benchmem . | tee BENCH_exec.txt
for _ in 1 2 3; do
  go test -run '^$' -bench '^BenchmarkExec(Scan|FilterScan)$/^parallel-' \
    -benchtime "${1:-2s}" -benchmem . | tee -a BENCH_exec.txt
done
go test -run '^$' -bench 'BenchmarkEndToEndQuery/local-point-parallel$' -cpu 1,2 \
  -benchtime "${1:-2s}" -benchmem . | tee -a BENCH_exec.txt
go test -run '^$' -bench 'BenchmarkReplicationApply$' -benchtime 200x -benchmem . | tee -a BENCH_exec.txt
go run ./cmd/rccbench -bench-text BENCH_exec.txt
