#!/usr/bin/env python3
"""Checks that the paper benches link only the paper core.

Reads the dot file that `cmake --graphviz=<file>` writes and follows every
link edge from each fig*/tab*/sens_* bench. The check fails if any of them
reaches an extension library: the serving and datacenter stack, cluster
placement, the collective engine, the link fabric or the multi-GPU harness.

Usage:
  cmake -S . -B build --graphviz=build/graphviz/orion.dot
  python3 tools/check_core_deps.py build/graphviz/orion.dot
"""

import re
import sys

PAPER_BENCH = re.compile(r"^(fig|tab|sens_)")
EXTENSIONS = {
    "orion_serving",
    "orion_datacenter",
    "orion_cluster",
    "orion_collective",
    "orion_interconnect",
    "orion_multi_gpu",
}

NODE = re.compile(r'^\s*"(\w+)"\s*\[\s*label\s*=\s*"([^"]+)"')
EDGE = re.compile(r'^\s*"(\w+)"\s*->\s*"(\w+)"')


def read_graph(path):
    """Returns {target name: set of directly linked target names}."""
    names = {}
    edges = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            node = NODE.match(line)
            if node:
                names[node.group(1)] = node.group(2)
                continue
            edge = EDGE.match(line)
            if edge:
                edges.append(edge.groups())
    graph = {name: set() for name in names.values()}
    for src, dst in edges:
        graph[names[src]].add(names[dst])
    return graph


def closure(graph, start):
    seen = set()
    stack = [start]
    while stack:
        for dep in graph.get(stack.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    graph = read_graph(argv[1])
    benches = sorted(name for name in graph if PAPER_BENCH.match(name))
    if not benches:
        print(f"no fig*/tab*/sens_* target in {argv[1]}", file=sys.stderr)
        return 1
    status = 0
    for bench in benches:
        deps = closure(graph, bench)
        bad = sorted(deps & EXTENSIONS)
        libs = sorted(dep for dep in deps if dep.startswith("orion_"))
        if bad:
            print(f"FAIL {bench} reaches {', '.join(bad)}")
            status = 1
        else:
            print(f"ok   {bench}: {len(libs)} orion libraries")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
