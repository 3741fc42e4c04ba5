#!/usr/bin/env python3
"""Print the layer ledger: each layer's share of each workload's median.

Run from the root of a checkout:

    python3 perfbench/ledger.py

It makes one traced run (--trace 1) per workload, with seed 1 and the
run_seconds of BENCHMARK.json, and prints, as a markdown table, the
median time of every layer call on the request path, its share of the
median handler time of the same traced requests, the layer coverage
(the layer times on the path each request took, summed, median over
requests, divided by the handler median) and the tracing overhead.
Where most requests hit the cache, the median request does not run the
miss-only layers; their cells say so instead of giving a share.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The layers of the request path, in the order the handler runs them.
# queue wait, plan and render run on a cache miss only.
PATH = ["service.decode", "service.registry_get", "core.validate", "service.key",
        "service.cache_lookup", "service.queue_wait", "core.plan", "service.render",
        "service.encode"]
MISS_ONLY = {"service.queue_wait", "core.plan", "service.render"}
SEED = 1


def traced(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("ledger: traced %s run failed (exit %d)" % (workload, proc.returncode))
    return json.loads(lines[-1])["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: traced(w, SEED, bench["run_seconds"]) for w in workloads}

    print("| layer | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for layer in PATH:
        cells = []
        for w in workloads:
            m = runs[w]
            v = m[layer + "_ms"]["value"]
            share = v / m["service.handler_ms"]["value"]
            # When most requests hit, the median request skips the miss-only layers.
            median_hits = m["service.cache_hit_ratio"]["value"] > 0.5
            off = median_hits and layer in MISS_ONLY
            cells.append("%.4g ms (%s)" % (v, "misses only" if off else "%.1f%%" % (100 * share)))
        print("| `%s` | %s |" % (layer, " | ".join(cells)))
    for name, fmt in [("service.handler_ms", "%.4g ms"), ("service.layer_coverage", "%.3f"),
                      ("trace.overhead_ms", "%.4g ms"), ("service.cache_hit_ratio", "%.3f")]:
        print("| %s | %s |" % (name, " | ".join(fmt % runs[w][name]["value"] for w in workloads)))


if __name__ == "__main__":
    main()
