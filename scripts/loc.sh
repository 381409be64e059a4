#!/usr/bin/env bash
# Prints non-test Go lines per package (one line each, `wc -l` of every
# *.go that is not *_test.go, testdata excluded), the total outside bench/
# and the sum over the guard-event spine — the packages one guard decision
# crosses from the session to its consumers — and the line count of
# scripts/*.sh beside it. ROADMAP tracks LoC per package; the total, the
# executor, the spine, the scenario code, the lint suite, the optimizer, the
# parser, the value types, the store, the back end and replication have
# ceilings. Fails when the total exceeds total_max, internal/exec exec_max,
# the spine spine_max, internal/harness scenario_max, internal/analysis
# analysis_max, internal/opt opt_max, internal/sqlparser sqlparser_max,
# internal/sqltypes sqltypes_max, internal/storage + internal/btree
# storage_max, internal/backend backend_max or internal/repl repl_max below.
set -euo pipefail

cd "$(dirname "$0")/.."
total_max=25922
exec_max=3796
spine_max=4834
scenario_max=2722
analysis_max=1361
opt_max=3369
sqlparser_max=2035
storage_max=1142
sqltypes_max=1353
backend_max=769
repl_max=710
spine='mtcache obs audit core tuner'

total=0
exec_lines=0
spine_lines=0
scenario_lines=0
analysis_lines=0
opt_lines=0
sqlparser_lines=0
storage_lines=0
sqltypes_lines=0
backend_lines=0
repl_lines=0
while read -r dir; do
  n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
  printf '%6d  %s\n' "$n" "${dir#./}"
  [[ "$dir" == ./bench ]] || total=$((total + n))
  [[ "$dir" == ./internal/exec ]] && exec_lines=$n
  [[ "$dir" == ./internal/harness ]] && scenario_lines=$n
  [[ "$dir" == ./internal/analysis ]] && analysis_lines=$n
  [[ "$dir" == ./internal/opt ]] && opt_lines=$n
  [[ "$dir" == ./internal/sqlparser ]] && sqlparser_lines=$n
  [[ "$dir" == ./internal/sqltypes ]] && sqltypes_lines=$n
  [[ "$dir" == ./internal/backend ]] && backend_lines=$n
  [[ "$dir" == ./internal/repl ]] && repl_lines=$n
  [[ "$dir" == ./internal/storage || "$dir" == ./internal/btree ]] && storage_lines=$((storage_lines + n))
  [[ " $spine " == *" ${dir#./internal/} "* ]] && spine_lines=$((spine_lines + n))
done < <(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -printf '%h\n' | sort -u)
printf '%6d  total (outside bench/)\n' "$total"
printf '%6d  spine (%s)\n' "$spine_lines" "${spine// / + }"
printf '%6d  store (storage + btree)\n' "$storage_lines"
printf '%6d  scripts/*.sh\n' "$(cat scripts/*.sh | wc -l)"

fail=0
check() { # what, lines, ceiling
  if (( $2 > $3 )); then
    echo "loc: $1 has $2 non-test lines, ceiling is $3" >&2
    fail=1
  fi
}
check "the total outside bench/" "$total" "$total_max"
check internal/exec "$exec_lines" "$exec_max"
check "the spine ($spine)" "$spine_lines" "$spine_max"
check internal/harness "$scenario_lines" "$scenario_max"
check internal/analysis "$analysis_lines" "$analysis_max"
check internal/opt "$opt_lines" "$opt_max"
check internal/sqlparser "$sqlparser_lines" "$sqlparser_max"
check internal/sqltypes "$sqltypes_lines" "$sqltypes_max"
check "the store (storage + btree)" "$storage_lines" "$storage_max"
check internal/backend "$backend_lines" "$backend_max"
check internal/repl "$repl_lines" "$repl_max"
exit $fail
