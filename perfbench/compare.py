#!/usr/bin/env python3
"""Re-run the benchmark in two sets and check that the sets agree.

Run from the root of a checkout:

    python3 perfbench/compare.py

Each set runs every workload of BENCHMARK.json ten times, for its
run_seconds, with another seed each time (set k, run i uses seed
10*k + i + 1). For each workload and end-to-end metric it prints each
set's median and quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median. The sets agree
when every spread is within the metric's bound in BENCHMARK.json, when the
second set's median is not worse than the first's by more than the bound,
and when the share of failed operations is the same in both sets. The exit
status is 0 only when they agree; the raw results are saved under
.bench_build/.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("compare: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    return res


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, other, better):
    """How much worse other is than first, as a share of first."""
    if first == 0:
        return 0.0
    return (other - first) / first if better == "lower" else (first - other) / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(RUNS):
            seed = k * RUNS + i + 1
            for w in workloads:
                res = run_once(w, seed, seconds)
                results[w][k].append(res)
                print("set %d run %d %-16s seed %-3d correct=%s attempted=%d failed=%d wall=%.1fs" % (
                    k + 1, i + 1, w, seed, res["correct"], res["attempted"], res["failed"], res["wall_s"]),
                    file=sys.stderr, flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    raw = os.path.join(ROOT, ".bench_build", "compare-%d.json" % int(time.time()))
    with open(raw, "w") as f:
        json.dump(results, f)

    ok = True
    for w in workloads:
        print("\n%s" % w)
        shares = []
        for k in range(SETS):
            runs = results[w][k]
            shares.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
            if not all(r["correct"] for r in runs):
                ok = False
                print("  set %d: a run failed its output checks" % (k + 1))
        print("  failed share per set: %s%s" % (shares, "" if len(set(shares)) == 1 else "  DIFFER"))
        ok = ok and len(set(shares)) == 1
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = "  %-20s bound %.2f" % (name, bound)
            first = None
            for k in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[w][k]]
                med, q1, q3, spread = summary(vals)
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD", False
                elif spread > bound / 3:
                    flag = " (over a third)"
                if first is None:
                    first = med
                elif worse_by(first, med, m["better"]) > bound:
                    flag, ok = flag + " WORSE", False
                line += " | set %d median %.6g q1 %.6g q3 %.6g spread %.3f%s" % (k + 1, med, q1, q3, spread, flag)
            print(line)
    print("\n%s (raw results: %s)" % ("sets agree" if ok else "sets DISAGREE", raw))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
