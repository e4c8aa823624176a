#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports spreads.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads live-wire,paged] [--update-readme]

Run from the repository root. Each workload runs --runs times, seed
first-seed, first-seed+1, ...; for every end-to-end metric in
BENCHMARK.json it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median,
against the metric's bound. Then one traced run per workload gives the
tracing overhead: the traced reference-rate p95 latency over the untraced
median. With --update-readme the table between the "reference figures"
markers of perfbench/README.md is regenerated from these runs.

Exits 1 if any run fails, reports a failed operation or an incorrect
answer, or if a spread exceeds its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BEGIN = "<!-- reference figures: begin (generated by steadiness.py) -->"
END = "<!-- reference figures: end -->"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d exited %d" %
                           (workload, seed, trace, proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--update-readme", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    ok = True
    rows = []
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, bench["run_seconds"], 0)
            print("%s seed %d: correct %s attempted %d failed %d: %s" %
                  (workload, seed, r["correct"], r["attempted"], r["failed"],
                   " ".join("%s=%.4g" % (k, v["value"])
                            for k, v in r["metrics"].items())),
                  flush=True)
            ok &= r["correct"] and r["failed"] == 0
            results.append(r)
        traced = run_once(workload, args.first_seed, bench["run_seconds"], 1)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            within = spread <= bound
            ok &= within
            rows.append((workload, name, results[0]["metrics"][name]["unit"],
                         med, q1, q3, spread, bound, within))
            print("  %-16s median %12.4f  Q1 %12.4f  Q3 %12.4f  spread "
                  "%6.3f  bound %.2f %s" % (name, med, q1, q3, spread, bound,
                                            "" if within else "EXCEEDS"))
        base = statistics.median(
            [r["metrics"]["latency_p95_ms"]["value"] for r in results])
        t = traced["metrics"]["traced.latency_p95_ms"]["value"]
        overhead = t / base - 1
        rows.append((workload, "tracing overhead (p95)", "%", overhead * 100,
                     None, None, None, None, True))
        print("  traced p95 %.2f ms vs untraced median %.2f ms: overhead "
              "%+.1f%%" % (t, base, overhead * 100), flush=True)

    if args.update_readme:
        update_readme(rows, args)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


def update_readme(rows, args):
    out = [BEGIN, "",
           "Measured on %s, %d CPUs (`nproc`), %d runs per workload, seeds "
           "%d..%d, run_seconds from BENCHMARK.json; reproduce with "
           "`python3 perfbench/steadiness.py --runs %d --first-seed %d "
           "--update-readme`." % (platform.machine(), os.cpu_count() or 0,
                                  args.runs, args.first_seed,
                                  args.first_seed + args.runs - 1, args.runs,
                                  args.first_seed),
           "",
           "| workload | metric | unit | median | Q1 | Q3 | spread | bound |",
           "|---|---|---|---|---|---|---|---|"]
    for (w, name, unit, med, q1, q3, spread, bound, _) in rows:
        if q1 is None:
            out.append("| %s | %s | %s | %+.1f | | | | |" % (w, name, unit, med))
        else:
            out.append("| %s | %s | %s | %.4g | %.4g | %.4g | %.3f | %.2f |" %
                       (w, name, unit, med, q1, q3, spread, bound))
    out += ["", END]
    path = os.path.join(HERE, "README.md")
    with open(path) as f:
        text = f.read()
    start, end = text.index(BEGIN), text.index(END) + len(END)
    with open(path, "w") as f:
        f.write(text[:start] + "\n".join(out) + text[end:])


if __name__ == "__main__":
    sys.exit(main())
