#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--workload NAME ...] [--seeds 1-10]
                                    [--baseline perfbench/baseline.json]

Run from the repository root. Runs perfbench/run.py once per seed and
workload (untraced, BENCHMARK.json's run_seconds) and prints, for every
end-to-end metric, the median, the quartiles and the spread: the
distance between the quartiles (statistics.quantiles, n=4) as a share of
the median, beside the metric's bound. A spread at or under a third of
its bound is marked "ok"; setup_s is exempt (only its median is compared
between runs).

With --baseline, also makes one traced run per workload at the first seed
and writes the untraced medians and quartiles (with sample counts) and
the traced per-layer values to that file.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: %d of %d operations failed"
                 % (workload, seed, result["failed"], result["attempted"]))
    return result


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--baseline")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
                "host": {"cpus": os.cpu_count(),
                         "platform": platform.platform()},
                "workloads": {}}
    steady = True
    for workload in workloads:
        values = {}
        for seed in args.seeds:
            result = run(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread <= bounds[name] / 3
            steady = steady and ok
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f) %s" % (name, med, q1, q3, spread,
                                       bounds[name], "ok" if ok else "WIDE"))
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "samples": len(vals)}
        entry = {"end_to_end": summary}
        if args.baseline:
            traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.seeds[0], "attempted":
                                  traced["attempted"], "metrics": {
                                      k: v["value"] for k, v in
                                      traced["metrics"].items()}}
        baseline["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
