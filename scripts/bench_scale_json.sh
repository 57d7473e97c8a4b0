#!/usr/bin/env bash
# Regenerate BENCH_scale.json: build Release, run the synthetic-topology
# scalability grid (topology family x node count x criterion, pruned vs
# unpruned, cold vs warm), and write the perf record to the repo root. The
# record carries the headline contract — balanced m=64 on a ~1M-host
# three-level fat-tree, cold, single-threaded, under 1 s — plus a pooled
# rerun of that selection and the peak RSS. The full metrics document and
# Chrome trace land next to it (metrics_scale.json, trace_scale.json — load
# the latter in Perfetto).
#
# Usage: scripts/bench_scale_json.sh [reps] [threads]
#   reps     repetitions per cell after the cold call (default 3)
#   threads  workers of the pooled rerun (default -1: bench_scale's
#            default of 4; the timed selections are single-threaded)
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-3}"
THREADS="${2:--1}"

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$(nproc)" --target bench_scale >/dev/null
./build/bench/bench_scale "$REPS" 4242 --m 64 --huge --threads "$THREADS" \
  --bench-json BENCH_scale.json \
  --metrics-json metrics_scale.json --chrome-trace trace_scale.json
python3 scripts/check_metrics_json.py --profile scale \
  metrics_scale.json trace_scale.json
cat BENCH_scale.json
