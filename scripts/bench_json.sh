#!/usr/bin/env bash
# Regenerate one committed perf record, BENCH_<bench>.json, at the repo
# root: build the bench (Release), run it, write the obs metrics document
# metrics_<bench>.json and (all but exact) the Chrome trace
# trace_<bench>.json next to it, validate them with the matching
# scripts/check_metrics_json.py profile and print the record.
#
# Usage: scripts/bench_json.sh <table1|scale|churn|service|exact> [bench args...]
#   bench args replace the record's workload arguments (DEFAULT below);
#   docs/BENCHMARKS.md describes each record and its headline contract.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${1:-}"
case "$BENCH" in
  table1) DEFAULT=(25 1999 --threads -1) ;;
  scale) DEFAULT=(3 4242 --m 64 --huge) ;;
  churn) DEFAULT=(3 4242) ;;
  service) DEFAULT=(300 4242) ;;
  exact) DEFAULT=(--budget 20000) ;;
  *)
    echo "usage: $0 <table1|scale|churn|service|exact> [bench args...]" >&2
    exit 64
    ;;
esac
shift
[ $# -gt 0 ] || set -- "${DEFAULT[@]}"

OUT=(--bench-json "BENCH_$BENCH.json" --metrics-json "metrics_$BENCH.json")
CHECK=("metrics_$BENCH.json")
if [ "$BENCH" != exact ]; then
  OUT+=(--chrome-trace "trace_$BENCH.json")
  CHECK+=("trace_$BENCH.json")
fi

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$(nproc)" --target "bench_$BENCH" >/dev/null
"./build/bench/bench_$BENCH" "$@" "${OUT[@]}"
python3 scripts/check_metrics_json.py --profile "$BENCH" "${CHECK[@]}"
cat "BENCH_$BENCH.json"
