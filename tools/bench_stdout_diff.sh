#!/usr/bin/env bash
# Runs every fig*/tab*/ext_*/sens_* bench of two build trees with --quick and
# fails on any stdout difference. perf_sim_core and overhead_interception
# print host timings and are skipped.
#
# Usage: tools/bench_stdout_diff.sh BUILD_A BUILD_B
set -u
if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi
a="$1/bench"
b="$2/bench"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
count=0
for path in "$a"/fig* "$a"/tab* "$a"/ext_* "$a"/sens_*; do
  name=$(basename "$path")
  [ -f "$path" ] && [ -x "$path" ] || continue
  if [ ! -x "$b/$name" ]; then
    echo "MISSING $name in $b"
    status=1
    continue
  fi
  "$path" --quick > "$out/a" 2>/dev/null || { echo "FAILED  $name in $a"; status=1; }
  "$b/$name" --quick > "$out/b" 2>/dev/null || { echo "FAILED  $name in $b"; status=1; }
  count=$((count + 1))
  if cmp -s "$out/a" "$out/b"; then
    echo "same    $name"
  else
    echo "DIFFERS $name"
    diff "$out/a" "$out/b" | head -20
    status=1
  fi
done
echo "$count benches compared"
exit $status
