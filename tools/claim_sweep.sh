#!/usr/bin/env bash
# Runs every bench that prints an ACCEPTANCE verdict line (those whose golden
# stdout under tests/data/bench_golden/ has one) with --quick over seeds
# 1..N, and prints how often each predicate held:
#
#   <artefact> <predicate> <k>/<N>
#
# one line per predicate, in the order the benches print them. A predicate
# that holds only at some seeds is a claim the seed-42 goldens cannot vouch
# for. Exits 1 if a run prints no ACCEPTANCE line or a different predicate
# set than seed 1, else 0 (a predicate that never holds is reported, not an
# error).
#
# Usage: tools/claim_sweep.sh BUILD N
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -ne 2 ] || ! [[ "$2" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: $0 BUILD N   (N >= 1 seeds)" >&2
  exit 2
fi
build="$1"
seeds="$2"

status=0
for golden in "$root"/tests/data/bench_golden/*.txt; do
  grep -q '^ACCEPTANCE ' "$golden" || continue
  name=$(basename "$golden" .txt)
  if [ ! -x "$build/bench/$name" ]; then
    echo "MISSING $name in $build" >&2
    status=1
    continue
  fi
  # predicate -> seeds at which it held; the first run fixes the order.
  unset held order
  declare -A held
  order=()
  for seed in $(seq 1 "$seeds"); do
    # A bench may exit 1 when a predicate fails; its verdict line still counts.
    line=$("$build/bench/$name" --quick --seed="$seed" 2>/dev/null | grep '^ACCEPTANCE ' | tail -1)
    if [ -z "$line" ]; then
      echo "NO-VERDICT $name --seed=$seed" >&2
      status=1
      continue
    fi
    artefact=${line#ACCEPTANCE }
    artefact=${artefact%%:*}
    read -ra pairs <<< "${line#*: }"
    names=()
    for pair in "${pairs[@]}"; do
      predicate=${pair%=*}
      names+=("$predicate")
      [ "${pair##*=}" = yes ] && held[$predicate]=$(( ${held[$predicate]:-0} + 1 ))
    done
    if [ ${#order[@]} -eq 0 ]; then
      order=("${names[@]}")
    elif [ "${names[*]}" != "${order[*]}" ]; then
      echo "PREDICATES-DIFFER $name --seed=$seed" >&2
      status=1
    fi
  done
  for predicate in "${order[@]}"; do
    echo "$artefact $predicate ${held[$predicate]:-0}/$seeds"
  done
done
exit $status
