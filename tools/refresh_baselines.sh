#!/usr/bin/env bash
# Refresh the committed perf baselines in bench/baselines/ — the one
# command to run after an intentional perf-relevant change:
#
#   tools/refresh_baselines.sh [BUILD_DIR]
#
# Builds (Release) if needed, runs the three gated perf benches in
# --quick mode and the four paper-figure benches (Figures 2-5) with
# --jobs 4, and copies their BENCH_*.json over bench/baselines/. Commit
# the result together with the change that moved the numbers.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
# Absolutize: the benches run from a scratch directory below, so a
# relative BUILD_DIR would stop resolving after the cd.
mkdir -p "$build"
build="$(cd "$build" && pwd)"

perf_benches=(bench_micro bench_scale bench_wire)
fig_benches=(bench_fig2_stalls bench_fig3_stall_duration bench_fig4_startup
             bench_fig5_pooling)
names=(core scale wire fig2_stalls fig3_stall_duration fig4_startup
       fig5_pooling)

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j"$(nproc)" \
  --target "${perf_benches[@]}" "${fig_benches[@]}" bench_compare

mkdir -p "$repo/bench/baselines"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The perf benches exit non-zero when one of their machine-dependent
# self-checks differs (e.g. profiler_overhead_ok on a noisy refresh
# machine); the figure benches exit non-zero when a paper shape check
# differs outside their known-deviation list. The baseline must record
# what this run actually measured either way — check booleans included,
# so bench_compare gates on flips from *this* recording — hence the
# refresh warns and carries on instead of aborting half-refreshed. The
# figure benches are deterministic: their output is byte-identical at
# any --jobs count.
for b in "${perf_benches[@]}"; do
  if ! (cd "$tmp" && "$build/bench/$b" --quick); then
    echo "warning: $b self-checks differ on this machine (recorded as-is)"
  fi
done
for b in "${fig_benches[@]}"; do
  if ! (cd "$tmp" && "$build/bench/$b" --jobs 4 > /dev/null); then
    echo "warning: $b shape checks differ outside its known deviations" \
         "(recorded as-is)"
  fi
done

# Before overwriting anything, show what this refresh changes in
# gating-key terms: bench_compare old-baseline vs fresh-run prints every
# added / removed / drifted / out-of-tolerance key (ok rows are elided).
# The refresh proceeds regardless — moving the numbers is the point —
# but the deltas end up in the terminal (and the commit message, if the
# committer is diligent) instead of buried in a JSON diff.
for name in "${names[@]}"; do
  old="$repo/bench/baselines/BENCH_$name.json"
  if [[ -f "$old" ]]; then
    echo "--- gating-key deltas, BENCH_$name.json (old baseline -> this run):"
    "$build/tools/bench_compare" "$old" "$tmp/BENCH_$name.json" || true
  else
    echo "--- BENCH_$name.json: no previous baseline, recording fresh"
  fi
done

for name in "${names[@]}"; do
  cp "$tmp/BENCH_$name.json" "$repo/bench/baselines/BENCH_$name.json"
  echo "refreshed bench/baselines/BENCH_$name.json"
done
# The figure tables in EXPERIMENTS.md are generated from these baselines.
python3 "$repo/tools/figure_tables.py" "$repo/EXPERIMENTS.md"
echo "regenerated the figure tables in EXPERIMENTS.md"

# Sanity: a fresh baseline must compare clean against itself.
for name in "${names[@]}"; do
  "$build/tools/bench_compare" \
    "$repo/bench/baselines/BENCH_$name.json" \
    "$repo/bench/baselines/BENCH_$name.json" > /dev/null
done
echo "baselines self-compare clean"

# The baselines deliberately carry machine-shaped environment keys
# (bench_compare classifies them as Environment and never gates on
# them); list what this refresh recorded so a reviewer can see the
# machine the numbers came from at a glance.
echo "environment keys carried over (recorded, never compared):"
grep -ho '"[^"]*jobs"[^,}]*' \
    "$repo"/bench/baselines/BENCH_*.json | sort -u | sed 's/^/  /'
