#!/usr/bin/env bash
# Prints non-test Go lines per package (one line each, `wc -l` of every
# *.go that is not *_test.go, testdata excluded) and the total outside
# bench/. ROADMAP tracks LoC per package; the executor has a ceiling.
# Fails when internal/exec exceeds exec_max below.
set -euo pipefail

cd "$(dirname "$0")/.."
exec_max=3857

total=0
exec_lines=0
while read -r dir; do
  n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
  printf '%6d  %s\n' "$n" "${dir#./}"
  [[ "$dir" == ./bench ]] || total=$((total + n))
  [[ "$dir" == ./internal/exec ]] && exec_lines=$n
done < <(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -printf '%h\n' | sort -u)
printf '%6d  total (outside bench/)\n' "$total"

if (( exec_lines > exec_max )); then
  echo "loc: internal/exec has $exec_lines non-test lines, ceiling is $exec_max" >&2
  exit 1
fi
