#!/usr/bin/env python3
"""Checks that the benchmark repeats: two interleaved sets of runs per workload.

    python3 perfbench/steady.py

Run it from the root of the repository. For every workload in
BENCHMARK.json it makes two sets (A and B) of 10 runs each, at the
run_seconds that BENCHMARK.json gives, with a distinct seed per run,
interleaved round by round across workloads and sets (alternating which set
goes first), so that both sets see the same drift of the host. Per end-to-end metric it
prints each set's median and quartiles (Python's statistics.quantiles, n=4),
the spread (interquartile range over median) and the shift of B's median
from A's in the metric's worse direction, and whether they agree within the
metric's bound in BENCHMARK.json: every spread except setup_s's within the
bound, and the shift within the bound. It also checks that both sets fail
the same share of operations. It then makes one traced run per workload and
prints the traced end-to-end figures against set A's medians (the overhead
of tracing) and the traced run's per-layer metrics. Raw results go to
.bench_build/steady/.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns (result JSON, stderr text)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench: %s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1]), proc.stderr


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for r in range(RUNS):
        for w in workloads:
            order = (("A", 1000), ("B", 2000))
            for name, base in order if r % 2 == 0 else order[::-1]:
                seed = base + r
                result, _ = run_once(w, seed, seconds, 0)
                if not result["correct"]:
                    raise SystemExit("perfbench: %s seed %d: wrong answer" %
                                     (w, seed))
                results[w][name].append(result)
                print("round %d %s %s seed %d done" % (r + 1, w, name, seed),
                      file=sys.stderr, flush=True)

    traced = {}
    layers = {}
    for w in workloads:
        layers[w], err = run_once(w, 3000, seconds, 1)
        if not layers[w]["correct"]:
            raise SystemExit("perfbench: traced %s: wrong answer" % w)
        match = re.search(r"^end_to_end \(traced\): (.*)$", err, re.M)
        traced[w] = json.loads(match.group(1)) if match else {}

    out_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady-%d.json" % int(time.time())),
              "w") as f:
        json.dump({"seconds": seconds, "results": results, "traced": traced,
                   "layers": layers}, f, indent=1)

    all_ok = True
    print("run_seconds=%g, %d runs per set, host nproc=%d" %
          (seconds, RUNS, os.cpu_count()))
    for w in workloads:
        print("\n### %s\n" % w)
        print("| metric | bound | A median [Q1, Q3] | A spread "
              "| B median [Q1, Q3] | B spread | B vs A | agree |")
        print("|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = {}
            for s in ("A", "B"):
                sets[s] = summary(
                    [res["metrics"][name]["value"] for res in results[w][s]])
            a_med, b_med = sets["A"][0], sets["B"][0]
            worse = (b_med - a_med) / a_med if m["better"] == "lower" else \
                (a_med - b_med) / a_med
            ok = worse <= bound and (name == "setup_s" or all(
                sets[s][3] <= bound for s in sets))
            all_ok = all_ok and ok
            cells = []
            for s in ("A", "B"):
                med, q1, q3, spread = sets[s]
                cells += ["%.4g [%.4g, %.4g]" % (med, q1, q3),
                          "%.1f%%" % (100 * spread)]
            print("| %s | %.2f | %s | %+.1f%% | %s |" %
                  (name, bound, " | ".join(cells), 100 * worse,
                   "yes" if ok else "NO"))
        shares = {s: {res["failed"] / res["attempted"] for res in results[w][s]}
                  for s in ("A", "B")}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        all_ok = all_ok and same
        print("\nfailed share: A %s, B %s (%s)" %
              (sorted(shares["A"]), sorted(shares["B"]),
               "same" if same else "DIFFERENT"))
        if traced[w]:
            print("\ntracing overhead (one traced run against A's median):")
            for m in metrics:
                name = m["name"]
                a_med = statistics.median(
                    [res["metrics"][name]["value"] for res in results[w]["A"]])
                value = traced[w][name]["value"]
                print("- %s: %.4g traced vs %.4g (%+.1f%%)" %
                      (name, value, a_med, 100 * (value - a_med) / a_med))
    print("\n### per-layer metrics (traced run, seed 3000)\n")
    print("| metric | unit | %s |" % " | ".join(workloads))
    print("|---|---|%s" % ("---|" * len(workloads)))
    for m in spec["per_layer"]:
        print("| `%s` | %s | %s |" % (m["name"], m["unit"], " | ".join(
            "%.4g" % layers[w]["metrics"][m["name"]]["value"]
            for w in workloads)))
    print("\nall metrics agree within their bounds: %s" %
          ("yes" if all_ok else "NO"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
