#!/usr/bin/env bash
# Paired runs: the committed tree of BASE (a commit, extracted with `git
# archive` into a temporary directory, so nothing is registered in this
# repository) against the working tree. Builds ./bench and the root
# package's test binary on both sides. Runs N pairs of the executor scan
# benchmarks, the end-to-end session reads and writes and the scanner
# (BenchmarkExec(Scan|FilterScan), BenchmarkEndToEndQuery and BenchmarkScan
# at -cpu 2, one run each) and of the agents' apply path
# (BenchmarkReplicationApply, 200 ops as scripts/bench.sh runs it: each op
# builds a system outside the timer), kept as DIR/gotest/{base,change}-I.txt,
# then N pairs per workload of ./bench
# with -trace 0 (each run's last line, its result object, kept as
# DIR/WORKLOAD/{base,change}-I.json); every pair alternates which side goes
# first (A-B, B-A, ...), and pair I of a workload runs seed I on both sides.
# `rccbench -pairs DIR` then prints, per workload and end-to-end metric of
# BENCHMARK.json and per benchmark for ns/op and allocs/op, both medians,
# the change, the base's interquartile range and the pairs the change won.
# PAIRS_DIR keeps the runs (default: removed with the temporary directory).
# The trap stops any run still going and removes what the script made.
# Usage: scripts/pairs.sh BASE [N] [SECONDS], default 5 pairs of 20 s runs.
set -euo pipefail

cd "$(dirname "$0")/.."
base=${1:?usage: scripts/pairs.sh BASE [N] [SECONDS]}
pairs=${2:-5}
seconds=${3:-20}
tmp=$(mktemp -d)
cleanup() {
  local kids
  kids=$(jobs -p)
  [[ -z "$kids" ]] || kill $kids 2>/dev/null || true
  wait || true
  rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir -p "$tmp/base"
git archive "$(git rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./bench && go test -c -o "$tmp/test-base" .)
go build -o "$tmp/bench-change" ./bench
go test -c -o "$tmp/test-change" .
go build -o "$tmp/rccbench" ./cmd/rccbench
out=${PAIRS_DIR:-$tmp/runs}
declare -A dirs=([base]="$tmp/base" [change]=.)

mkdir -p "$out/gotest"
for ((i = 1; i <= pairs; i++)); do
  order=(base change)
  ((i % 2)) || order=(change base)
  for side in "${order[@]}"; do
    (cd "${dirs[$side]}" && exec "$tmp/test-$side" -test.run '^$' -test.bench '^Benchmark(Exec(Scan|FilterScan)|EndToEndQuery|Scan)$' \
      -test.benchmem -test.cpu 2) >"$out/gotest/$side-$i.txt" &
    wait $!
    (cd "${dirs[$side]}" && exec "$tmp/test-$side" -test.run '^$' -test.bench '^BenchmarkReplicationApply$' \
      -test.benchtime 200x -test.benchmem -test.cpu 2) >>"$out/gotest/$side-$i.txt" &
    wait $!
    echo "go test benchmarks pair $i $side: $(grep -c '^Benchmark' "$out/gotest/$side-$i.txt") rows" >&2
  done
done

for w in point_hot mix_zipf analytic read_write; do
  mkdir -p "$out/$w"
  for ((i = 1; i <= pairs; i++)); do
    order=(base change)
    ((i % 2)) || order=(change base)
    for side in "${order[@]}"; do
      # Run in the background and wait, so the trap can stop it.
      "$tmp/bench-$side" -workload "$w" -seed "$i" -seconds "$seconds" -trace 0 -out "$tmp/out-$side" \
        >"$tmp/log" &
      wait $!
      tail -n 1 "$tmp/log" >"$out/$w/$side-$i.json"
      echo "$w pair $i $side: $(cat "$out/$w/$side-$i.json")" >&2
    done
  done
done
"$tmp/rccbench" -pairs "$out"
