#!/usr/bin/env bash
# Runs every fig*/tab*/ext_*/sens_* bench of two build trees with --quick and
# fails on any stdout difference. perf_sim_core and overhead_interception
# print host timings and are skipped. Each line also gives the bench's wall
# time in seconds in BUILD_A and BUILD_B, and the last line the totals, so
# the run that proves byte-identity also measures the speed change.
#
# The same bench list feeds the golden-stdout ctests (tests/CMakeLists.txt,
# label `golden`), which diff each bench against tests/data/bench_golden/.
#
# Usage: tools/bench_stdout_diff.sh BUILD_A BUILD_B
#        tools/bench_stdout_diff.sh --list                 # the bench names
#        tools/bench_stdout_diff.sh --write-goldens BUILD  # regenerate goldens
set -u
root=$(cd "$(dirname "$0")/.." && pwd)

# The deterministic benches, one name per line, from the bench sources.
benches() {
  for src in "$root"/bench/fig*.cc "$root"/bench/tab*.cc "$root"/bench/ext_*.cc \
             "$root"/bench/sens_*.cc; do
    basename "$src" .cc
  done
}

if [ $# -eq 1 ] && [ "$1" = "--list" ]; then
  benches
  exit 0
fi
if [ $# -eq 2 ] && [ "$1" = "--write-goldens" ]; then
  golden="$root/tests/data/bench_golden"
  mkdir -p "$golden"
  status=0
  for name in $(benches); do
    "$2/bench/$name" --quick > "$golden/$name.txt" || { echo "FAILED  $name"; status=1; }
  done
  exit $status
fi
if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_A BUILD_B | --list | --write-goldens BUILD" >&2
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
for name in $(benches); do
  for tree in "$a" "$b"; do
    if [ ! -x "$tree/$name" ]; then
      echo "MISSING $name in $tree"
      status=1
      continue 2
    fi
  done
  start=$(now_ms)
  "$a/$name" --quick > "$out/a" 2>/dev/null || { echo "FAILED  $name in $a"; status=1; }
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
