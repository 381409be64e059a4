#!/usr/bin/env bash
# Prints non-test Go lines per package (one line each, `wc -l` of every
# *.go that is not *_test.go, testdata excluded), the total outside bench/
# and the sum over the guard-event spine — the packages one guard decision
# crosses from the session to its consumers — and the line count of
# scripts/*.sh beside it. ROADMAP tracks LoC per package; the executor, the
# spine, the scenario code and the lint suite have ceilings. Fails when
# internal/exec exceeds exec_max, the spine spine_max, internal/harness
# scenario_max or internal/analysis analysis_max below.
set -euo pipefail

cd "$(dirname "$0")/.."
exec_max=3827
spine_max=5043
scenario_max=2732
analysis_max=1361
spine='mtcache obs audit core tuner'

total=0
exec_lines=0
spine_lines=0
scenario_lines=0
analysis_lines=0
while read -r dir; do
  n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
  printf '%6d  %s\n' "$n" "${dir#./}"
  [[ "$dir" == ./bench ]] || total=$((total + n))
  [[ "$dir" == ./internal/exec ]] && exec_lines=$n
  [[ "$dir" == ./internal/harness ]] && scenario_lines=$n
  [[ "$dir" == ./internal/analysis ]] && analysis_lines=$n
  [[ " $spine " == *" ${dir#./internal/} "* ]] && spine_lines=$((spine_lines + n))
done < <(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -printf '%h\n' | sort -u)
printf '%6d  total (outside bench/)\n' "$total"
printf '%6d  spine (%s)\n' "$spine_lines" "${spine// / + }"
printf '%6d  scripts/*.sh\n' "$(cat scripts/*.sh | wc -l)"

fail=0
if (( exec_lines > exec_max )); then
  echo "loc: internal/exec has $exec_lines non-test lines, ceiling is $exec_max" >&2
  fail=1
fi
if (( spine_lines > spine_max )); then
  echo "loc: the spine ($spine) has $spine_lines non-test lines, ceiling is $spine_max" >&2
  fail=1
fi
if (( scenario_lines > scenario_max )); then
  echo "loc: internal/harness has $scenario_lines non-test lines, ceiling is $scenario_max" >&2
  fail=1
fi
if (( analysis_lines > analysis_max )); then
  echo "loc: internal/analysis has $analysis_lines non-test lines, ceiling is $analysis_max" >&2
  fail=1
fi
exit $fail
