#!/usr/bin/env bash
# Perf snapshot: runs a benchmark suite and emits its metrics as a JSON
# file, one object per benchmark line, so perf trajectories can be diffed
# across commits by machines instead of eyeballs.
#
# Re-runs MERGE into an existing snapshot: a partial run (a narrower regex,
# or a suite member that was skipped) updates only the rows it re-measured
# and preserves every other row, so one slow benchmark can be refreshed
# without losing — or silently zeroing — the rest of the suite.
#
# Usage: scripts/bench_to_json.sh [out.json] [benchtime] [suite] [regex]
#   out.json   defaults to BENCH_encode.json in the repo root
#   benchtime  defaults to 1x (one capture chain per benchmark: smoke-grade)
#   suite      defaults to encode; "contention" selects the drain-scheduler
#              suite (BenchmarkContention -> BENCH_contention.json)
#   regex      overrides the suite's benchmark regex
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_encode.json}
benchtime=${2:-1x}
suite=${3:-encode}

case "$suite" in
  encode)     default_regex='BenchmarkStreamingCheckpoint|BenchmarkCDCCheckpoint' ;;
  contention) default_regex='BenchmarkContention' ;;
  *)          default_regex='' ;;
esac
regex=${4:-$default_regex}
if [ -z "$regex" ]; then
  echo "bench_to_json: unknown suite '$suite' and no regex given" >&2
  exit 2
fi

raw=$(go test -run '^$' \
  -bench "$regex" \
  -benchtime="$benchtime" -short . 2>&1) || { echo "$raw" >&2; exit 1; }

# A Go benchmark line is: Name-GOMAXPROCS  iters  value unit  value unit ...
# Everything after the iteration count alternates value/unit. Each parsed
# line becomes one row object (no trailing comma yet — the merge below
# decides the final layout).
new_rows=$(echo "$raw" | awk '
/^Benchmark/ && NF >= 4 {
  name = $1
  sub(/-[0-9]+$/, "", name)
  line = sprintf("  {\"name\": \"%s\", \"iters\": %s, \"metrics\": {", name, $2)
  sep = ""
  for (i = 3; i + 1 <= NF; i += 2) {
    line = line sprintf("%s\"%s\": %s", sep, $(i + 1), $i)
    sep = ", "
  }
  print line "}}"
}')
if [ -z "$new_rows" ]; then
  echo "bench_to_json: no benchmark lines parsed" >&2
  echo "$raw" >&2
  exit 1
fi

# Surviving rows from the previous snapshot of the SAME suite (one row
# object per line, trailing comma stripped). A snapshot written for a
# different suite is not merged — those rows belong in their own file.
old_rows=""
if [ -f "$out" ] && grep -q "\"suite\": \"$suite\"" "$out"; then
  old_rows=$(sed -n 's/^\(  {"name": .*}}\),\{0,1\}$/\1/p' "$out")
fi

tmp_new=$(mktemp) tmp_old=$(mktemp)
trap 'rm -f "$tmp_new" "$tmp_old"' EXIT
printf '%s\n' "$new_rows" > "$tmp_new"
printf '%s\n' "$old_rows" > "$tmp_old"

# Merge: old rows keep their order, re-measured rows are replaced in place,
# rows this run measured for the first time are appended.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v suite="$suite" '
function nameof(line) {
  match(line, /"name": "[^"]*"/)
  return substr(line, RSTART + 9, RLENGTH - 10)
}
NR == FNR {
  if (NF == 0) next
  key = nameof($0)
  if (!(key in newrow)) neworder[++nn] = key
  newrow[key] = $0
  next
}
NF {
  key = nameof($0)
  if (key in emitted) next
  emitted[key] = 1
  if (key in newrow) {
    rows[++n] = newrow[key]
    used[key] = 1
  } else {
    rows[++n] = $0
  }
}
END {
  for (i = 1; i <= nn; i++) {
    key = neworder[i]
    if (!(key in used) && !(key in emitted)) rows[++n] = newrow[key]
  }
  if (n == 0) { print "bench_to_json: nothing to write" > "/dev/stderr"; exit 1 }
  printf "{\n\"date\": \"%s\",\n\"suite\": \"%s\",\n\"benchmarks\": [\n", date, suite
  for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
  print "]\n}"
}' "$tmp_new" "$tmp_old" > "$out.tmp"
mv "$out.tmp" "$out"

echo "wrote $out:" >&2
cat "$out"
