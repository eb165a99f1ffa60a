#!/usr/bin/env python3
"""Compare a fresh perf_sim_core run against the committed baseline.

Usage:
    check_perf_baseline.py BASELINE.json FRESH.json [--min-ratio=R]

Gates CI on simulation-core throughput regressions with deliberately
generous tolerances: shared runners are noisy and the committed baseline
(BENCH_simcore.json) was recorded on different hardware, so only a large,
consistent drop should fail the build.

Checks, per benchmark name present in the baseline:
  * the fresh run contains the same benchmark (a vanished benchmark is a
    regression in coverage, not just speed);
  * fresh events_per_sec >= min_ratio * baseline events_per_sec.

Entries without an events_per_sec field (e.g. wall-clock-only rows like
ext_online_serving_quick) are reported but never gate.

Exit status: 0 OK, 1 regression or missing benchmark, 2 usage/IO error.
"""

import json
import sys

DEFAULT_MIN_RATIO = 0.35  # fresh may be ~3x slower before the gate trips


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    results = doc.get("results")
    if not isinstance(results, list):
        print(f"error: {path} has no 'results' array", file=sys.stderr)
        sys.exit(2)
    return {entry.get("name"): entry for entry in results if entry.get("name")}


def main(argv):
    min_ratio = DEFAULT_MIN_RATIO
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--min-ratio="):
            min_ratio = float(arg.split("=", 1)[1])
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load(paths[0])
    fresh = load(paths[1])

    failures = []
    width = max(len(name) for name in baseline) if baseline else 10
    print(f"{'benchmark':<{width}}  {'baseline ev/s':>14}  {'fresh ev/s':>14}  "
          f"{'ratio':>6}  status")
    for name, base_entry in sorted(baseline.items()):
        fresh_entry = fresh.get(name)
        if fresh_entry is None:
            failures.append(f"{name}: missing from fresh run")
            print(f"{name:<{width}}  {'-':>14}  {'-':>14}  {'-':>6}  MISSING")
            continue
        base_rate = base_entry.get("events_per_sec")
        fresh_rate = fresh_entry.get("events_per_sec")
        if not base_rate or not fresh_rate:
            print(f"{name:<{width}}  {'-':>14}  {'-':>14}  {'-':>6}  no-rate (skipped)")
            continue
        ratio = fresh_rate / base_rate
        ok = ratio >= min_ratio
        print(f"{name:<{width}}  {base_rate:>14.3g}  {fresh_rate:>14.3g}  "
              f"{ratio:>6.2f}  {'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(
                f"{name}: {fresh_rate:.3g} ev/s is {ratio:.2f}x the baseline "
                f"{base_rate:.3g} (floor {min_ratio})")

    new_names = sorted(set(fresh) - set(baseline))
    if new_names:
        print(f"note: benchmarks not in baseline (unchecked): {', '.join(new_names)}")

    if failures:
        print("\nperf baseline check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf baseline check passed "
          f"({len(baseline)} benchmarks, floor {min_ratio}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
