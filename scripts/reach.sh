#!/usr/bin/env bash
# Lists the functions that only the unit tests reach and those nothing
# reaches. "Reached" means run by a coverage build of ./bench (its four
# workloads, timed and traced, one second each), every rccbench mode (the
# short load sweep also paced on the wall clock, some six seconds; -pairs on
# the committed fixture cmd/rccbench/testdata/pairs), rccsql fed a script,
# rccdemo, rcclint and the examples. The unit tests' profile comes from `go
# test -coverpkg=./...`. No gate: every listed function needs a reason to
# stay (DESIGN §10). Keeps its files in $REACH_DIR (default: a temporary
# directory).
set -uo pipefail

cd "$(dirname "$0")/.."
root=$PWD dir=${REACH_DIR:-$(mktemp -d)}
mkdir -p "$dir/bin" "$dir/run" "$dir/test" "$dir/cwd"
go build -cover -o "$dir/bin/" ./bench ./cmd/... ./examples/... || exit 1
export GOCOVERDIR=$dir/run
for w in point_hot mix_zipf analytic read_write; do
  for t in 0 1; do "$dir/bin/bench" -workload "$w" -seconds 1 -trace "$t" -out "$dir/cwd" >/dev/null; done
done
cp BENCH_baseline.json BENCHMARK.json "$dir/cwd/"
(cd "$dir/cwd" && for mode in "" "-extras -metrics -autotune" -chaos "-chaos -audit" "-chaos -audit -broken-guard" \
  -shift "-shift -audit" "-load -load-short -load-json load.json" "-load -load-short -wall" "-bench-text $root/internal/harness/testdata/bench_procs2.txt" \
  "-pairs $root/cmd/rccbench/testdata/pairs"; do
  "$dir/bin/rccbench" $mode -snapshot "$dir/cwd/snap" >/dev/null 2>&1
done)
printf '%s\n' 'SELECT c_name FROM Customer WHERE c_custkey = 17 CURRENCY 60 ON (Customer)' '\run 30s' '\regions' '\stats' \
  '\metrics' '\trace' '\tuner' 'EXPLAIN ANALYZE SELECT COUNT(*) FROM Orders' '\trace' '\plan SELECT c_name FROM Customer' '\q' |
  "$dir/bin/rccsql" -autotune >/dev/null
for b in rccdemo rcclint bookstore loadshift quickstart sessions; do "$dir/bin/$b" >/dev/null 2>&1; done
unset GOCOVERDIR
go test -cover -coverpkg=./... ./... -args -test.gocoverdir="$dir/test" >/dev/null

for p in run test; do
  go tool covdata textfmt -i "$dir/$p" -o "$dir/$p.txt" && go tool cover -func "$dir/$p.txt" >"$dir/$p.func"
done
# Key each function by file and name; a package no binary links is unreached.
awk 'FNR == NR { run[$1 " " $2] = $3; next } $1 == "total:" { next } {
  k = $1 " " $2; if (!(k in run) || run[k] == "0.0%") print ($3 == "0.0%" ? "none " : "tests ") k }' \
  "$dir/run.func" "$dir/test.func" | sort >"$dir/reach.txt"
echo "== reached only by the unit tests"; grep '^tests ' "$dir/reach.txt" | cut -d' ' -f2-
echo "== reached by nothing"; grep '^none ' "$dir/reach.txt" | cut -d' ' -f2-
printf '%6d only by the unit tests, %d by nothing (%s)\n' "$(grep -c '^tests ' "$dir/reach.txt")" "$(grep -c '^none ' "$dir/reach.txt")" "$dir/reach.txt"
