#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver (perfbench/CMakeLists.txt, Release) from the sources in
this checkout into .bench_build/perfbench, runs one workload and prints, as
the last stdout line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1 the
per-layer metrics, and writes the recorded spans with each layer's self time
to .bench_build/perfbench/spans-<workload>-<seed>.json.

setup_s is the median over SETUP_SAMPLES set-ups, each in a fresh process,
so work moved into set-up (a warm cache, a memo) shows in every sample. Half
of the extra set-ups run before the measured run and half after it, so the
samples span the run rather than one moment of a machine whose speed drifts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "orion_perfbench")
WORKLOADS = ("colloc_sweep", "oversub_paging", "cluster_serving")
SETUP_SAMPLES = 7  # the measured run's own set-up plus six set-up-only runs
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_driver(args, timeout):
    """Runs the driver; returns (text lines, parsed last line)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing")
    return lines[:-1], json.loads(lines[-1])


def setup_samples(common, count):
    """setup_s of `count` fresh set-up-only runs."""
    return [run_driver(common + ["--setup-only"], 60)[1]["setup_s"]
            for _ in range(count)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        common = ["--workload", opts.workload, "--seed", str(opts.seed)]
        extra = ["--seconds", str(opts.seconds), "--trace", str(opts.trace)]
        if opts.trace:
            spans = os.path.join(
                BUILD_DIR, "spans-%s-%d.json" % (opts.workload, opts.seed))
            extra += ["--spans-out", spans]
        extra_setups = 0 if opts.trace else SETUP_SAMPLES - 1
        setups = setup_samples(common, extra_setups // 2)
        text, result = run_driver(common + extra, RUN_TIMEOUT_S)
        setups += setup_samples(common, extra_setups - extra_setups // 2)
        if not opts.trace:
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
            text.append("setup_s samples: " +
                        " ".join("%.4f" % s for s in setups))
    except (subprocess.SubprocessError, OSError, ValueError, KeyError,
            RuntimeError) as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1

    for line in text:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
