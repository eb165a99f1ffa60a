#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [--seconds N]

Runs every workload in BENCHMARK.json briefly through the benchmark command,
once untraced and once traced, and checks that:
  * the last stdout line parses as a JSON object with exactly the keys
    correct, attempted, failed and metrics;
  * the run is correct, with attempted >= 1 and failed == 0;
  * the metric names are exactly BENCHMARK.json's end_to_end names (untraced)
    or per_layer names (traced), each with its declared unit and a finite
    number as value;
  * every end-to-end value is positive;
  * every per-layer metric a workload declares in perfbench/predictions.json
    reads above zero on that workload.
Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, declares, workload, trace, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit code %d" % (where, proc.returncode)]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as err:
        return ["%s: last line is not JSON (%s)" % (where, err)]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["%s: keys %s" % (where, sorted(result))]
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (where, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (where, result["attempted"]))
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if sorted(got) != sorted(want):
        errors.append("%s: missing %s, unexpected %s" % (
            where, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        metric = got.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if metric.get("unit") != unit:
            errors.append("%s: %s unit %r, declared %r" %
                          (where, name, metric.get("unit"), unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (where, name, value))
        elif (not trace or name in declares) and value <= 0:
            errors.append("%s: %s reads %r, expected > 0" % (where, name, value))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=1)
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)["workloads"]
    errors = []
    layer_names = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        declares = set(predictions[workload]["declares"])
        if not declares <= layer_names:
            errors.append("%s declares unknown metrics %s" %
                          (workload, sorted(declares - layer_names)))
        for trace in (0, 1):
            found = check_run(spec, declares, workload, trace, opts.seconds)
            print("%-16s trace %d: %s" %
                  (workload, trace, "ok" if not found else "FAILED"), flush=True)
            errors += found
    for error in errors:
        print("  " + error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
