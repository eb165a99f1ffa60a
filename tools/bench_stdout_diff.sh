#!/usr/bin/env bash
# Runs every fig*/tab*/ext_*/sens_* bench of two build trees with --quick and
# fails on any stdout difference. perf_sim_core and overhead_interception
# print host timings and are skipped. Each line also gives the bench's wall
# time in seconds in BUILD_A and BUILD_B, and the last line the totals, so
# the run that proves byte-identity also measures the speed change.
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
total_a=0
total_b=0

# Wall clock in milliseconds, and milliseconds printed as seconds.
now_ms() { echo $(($(date +%s%N) / 1000000)); }
secs() { awk -v ms="$1" 'BEGIN { printf "%.2f", ms / 1000 }'; }
for path in "$a"/fig* "$a"/tab* "$a"/ext_* "$a"/sens_*; do
  name=$(basename "$path")
  [ -f "$path" ] && [ -x "$path" ] || continue
  if [ ! -x "$b/$name" ]; then
    echo "MISSING $name in $b"
    status=1
    continue
  fi
  start=$(now_ms)
  "$path" --quick > "$out/a" 2>/dev/null || { echo "FAILED  $name in $a"; status=1; }
  mid=$(now_ms)
  "$b/$name" --quick > "$out/b" 2>/dev/null || { echo "FAILED  $name in $b"; status=1; }
  end=$(now_ms)
  total_a=$((total_a + mid - start))
  total_b=$((total_b + end - mid))
  count=$((count + 1))
  times="$(secs $((mid - start))) $(secs $((end - mid)))"
  if cmp -s "$out/a" "$out/b"; then
    printf "same    %-28s %s\n" "$name" "$times"
  else
    printf "DIFFERS %-28s %s\n" "$name" "$times"
    diff "$out/a" "$out/b" | head -20
    status=1
  fi
done
echo "$count benches compared; wall time $(secs $total_a) s in $1, $(secs $total_b) s in $2"
exit $status
