#!/usr/bin/env bash
# Runs the executor benchmarks (serial vs morsel-parallel, the guarded
# SwitchUnion and the autotune shift), the end-to-end session benchmark
# (BenchmarkEndToEndQuery; its local-point-parallel row once more at -cpu 1
# and -cpu 2, for two-core scaling) and the price of a true plan-cache miss
# (BenchmarkOptimizerConsistencyChecking), keeps the `go test -bench`
# transcript as BENCH_exec.txt and hands it to `rccbench -bench-text`, which
# writes BENCH_exec.json (harness.BenchRow) and gates it: allocation
# ceilings, parallel scaling, an autotuner that acts, and the bands around
# BENCH_baseline.json (harness.CheckBench).
# Usage: scripts/bench.sh [benchtime], default 2s.
set -euo pipefail

cd "$(dirname "$0")/.."
go test -run '^$' -bench 'BenchmarkExec|BenchmarkEndToEndQuery|BenchmarkOptimizerConsistencyChecking' \
  -skip 'BenchmarkEndToEndQuery/local-point-parallel' -benchtime "${1:-2s}" -benchmem . | tee BENCH_exec.txt
go test -run '^$' -bench 'BenchmarkEndToEndQuery/local-point-parallel$' -cpu 1,2 \
  -benchtime "${1:-2s}" -benchmem . | tee -a BENCH_exec.txt
go run ./cmd/rccbench -bench-text BENCH_exec.txt
