#!/usr/bin/env bash
# Prints non-test Go lines per package (one line each, `wc -l` of every
# *.go that is not *_test.go, testdata excluded), the total outside bench/
# and the sum over the guard-event spine — the packages one guard decision
# crosses from the session to its consumers — and the line count of
# scripts/*.sh beside it. ROADMAP tracks LoC per package. Fails when a row of
# the ceilings table below has more lines than its ceiling: a row names what
# it bounds, its ceiling and the packages (under internal/, or `all` for the
# total outside bench/) whose lines it sums.
set -euo pipefail

cd "$(dirname "$0")/.."
spine='mtcache obs audit core tuner'
ceilings="the total outside bench/|25819|all
internal/exec|3811|exec
the spine ($spine)|4617|$spine
internal/harness|2757|harness
internal/analysis|1361|analysis
internal/opt|3281|opt
internal/sqlparser|2211|sqlparser
internal/sqltypes|1360|sqltypes
the store (storage + btree)|1074|storage btree
internal/backend|796|backend
internal/repl|690|repl
internal/remote|375|remote"

declare -A lines=([all]=0)
sum() { # the lines of the packages named in $1
  local n=0 p
  for p in $1; do n=$((n + ${lines[$p]:-0})); done
  echo "$n"
}
while read -r dir; do
  n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
  printf '%6d  %s\n' "$n" "${dir#./}"
  lines[${dir#./internal/}]=$n
  [[ "$dir" == ./bench ]] || lines[all]=$((lines[all] + n))
done < <(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -printf '%h\n' | sort -u)
printf '%6d  total (outside bench/)\n' "${lines[all]}"
printf '%6d  spine (%s)\n' "$(sum "$spine")" "${spine// / + }"
printf '%6d  store (storage + btree)\n' "$(sum 'storage btree')"
printf '%6d  scripts/*.sh\n' "$(cat scripts/*.sh | wc -l)"

fail=0
while IFS='|' read -r what ceiling pkgs; do
  n=$(sum "$pkgs")
  if ((n > ceiling)); then
    echo "loc: $what has $n non-test lines, ceiling is $ceiling" >&2
    fail=1
  fi
done <<<"$ceilings"
exit $fail
