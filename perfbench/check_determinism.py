#!/usr/bin/env python3
"""Determinism guard for the benchmark's simulated outputs.

    python3 perfbench/check_determinism.py [--workload NAME ...]
                                           [--seeds A,B] [--trace 0|1]

Run from the repository root. Runs each workload at seed A twice and at
seed B once (traced by default, so every per-layer count is printed).
Under seed A every simulated metric and count must repeat bit for bit,
and so must the binary's fingerprint, a hash over every viewer's QoE and
every simulation's counters. Under seed B the fingerprint and the
seed-sensitive totals must differ, so a later claim can be re-checked on
a held-out seed. Host measurements (times, memory, shares of host time)
are exempt. Exits 0 when both hold.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics read from the host clock or the allocator; everything else the
# benchmark prints is simulated or counted and must repeat exactly.
HOST_METRICS = {
    "setup_s", "wall_s", "peak_rss_mb",
    "video.encode_s", "core.splice_s",
    "experiments.run_wall_ms.p50", "experiments.run_wall_ms.p90",
    "sim.ns_per_event", "sim.fire_s", "sim.fire_self_s",
    "net.reallocate_s", "net.star_allocate_s", "net.reallocate_share",
    "p2p.deliver_s", "p2p.deliver_self_s", "p2p.deliver_share", "p2p.sched_s",
    "obs.trace_overhead", "obs.unattributed_share",
}
# Totals that any change of seed moves.
SEED_SENSITIVE = ["sim.events", "p2p.messages_routed", "streaming.stall_s"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                           text=True).stdout.strip().splitlines()
    fingerprint = next(l.split()[1] for l in lines
                       if l.startswith("fingerprint "))
    metrics = json.loads(lines[-1])["metrics"]
    simulated = {k: v["value"] for k, v in metrics.items()
                 if k not in HOST_METRICS}
    return fingerprint, simulated


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    seed_a, seed_b = (int(s) for s in args.seeds.split(","))
    workloads = args.workload or ["paper_grid", "swarm_2000", "wide_churn_500"]

    ok = True
    for workload in workloads:
        first = run(workload, seed_a, args.trace)
        again = run(workload, seed_a, args.trace)
        other = run(workload, seed_b, args.trace)
        problems = []
        if first[0] != again[0]:
            problems.append("fingerprint changed on a repeat of seed %d"
                            % seed_a)
        problems += ["%s: %r then %r on seed %d" % (k, v, again[1].get(k),
                                                     seed_a)
                     for k, v in first[1].items() if again[1].get(k) != v]
        if first[0] == other[0]:
            problems.append("fingerprint equal under seeds %d and %d"
                            % (seed_a, seed_b))
        problems += ["%s equal under seeds %d and %d" % (k, seed_a, seed_b)
                     for k in SEED_SENSITIVE
                     if k in first[1] and first[1][k] == other[1][k]]
        print("%s: %d simulated metrics + fingerprint %s" % (
            workload, len(first[1]), "ok" if not problems else "FAILED"))
        for p in problems:
            print("  " + p)
        ok = ok and not problems
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
