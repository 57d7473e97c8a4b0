#!/usr/bin/env python3
"""Tolerance-based comparator of fresh bench JSON against the committed
BENCH_*.json baselines — the CI regression gate.

Usage:
  check_bench_regression.py [--tolerance F] NAME FRESH BASELINE \
                            [NAME FRESH BASELINE ...]

Each triplet names the benchmark (table1 | scale | churn | service |
exact), the
freshly produced JSON and the committed baseline. Two kinds of rules run
per benchmark:

  * boolean contracts — machine-independent correctness flags the fresh run
    must reproduce whenever the baseline asserts them (bit-identical
    serial-vs-pooled digests, within-target latencies). These never get
    tolerance: a flipped contract is a regression no matter the hardware.
  * ratio guards — throughput/latency fields compared as fresh/baseline
    ratios with deliberately generous windows (CI machines differ from the
    machine that produced the committed baselines by far more than any real
    regression we want to catch silently). --tolerance F (default 1.0)
    scales the windows further: min ratios divide by F, max ratios multiply.

The scale headline is the balanced cold time on the largest fat-tree of
the run, and a CI run is smaller than the committed record. Its ratio guard
therefore compares like with like: it reads the baseline's cells[] entry
with the fresh headline's (family, nodes) under the same top-level m, and
fails when the baseline has no such cell.

Exits non-zero listing every violated rule; prints one line per rule
otherwise. Missing fields fail loudly — a baseline/bench schema drift must
not silently disable the gate. So do unknown ones: every key path of the
fresh record must exist in its baseline (list elements collapse to the
union of their keys, so a smaller fresh grid is a subset of a larger
baseline), which catches a renamed field before it silently drops out of
the gate.
"""

import json
import sys

# (path, kind, limit): kind "bool_true" requires the fresh flag to be true
# whenever the baseline's is; "min_ratio" requires fresh/baseline >= limit;
# "max_ratio" requires fresh/baseline <= limit. Rate fields use ~5x windows
# (cross-machine), the churn speedup is itself a same-machine ratio so its
# window is tighter. A path starting with "cell:" is read from the matching
# scale cell (see scale_cell).
RULES = {
    "table1": [
        ("identical_stats", "bool_true", None),
        ("parallel.trials_per_sec", "min_ratio", 0.2),
    ],
    "scale": [
        ("headline.within_target", "bool_true", None),
        ("cell:criteria.balanced.cold_seconds", "max_ratio", 5.0),
    ],
    "churn": [
        ("headline.within_target", "bool_true", None),
        ("headline.speedup", "min_ratio", 1.0 / 3.0),
    ],
    "service": [
        ("headline.identical", "bool_true", None),
        ("headline.placements_per_sec", "min_ratio", 0.2),
        ("headline.placement_p99_ms", "max_ratio", 5.0),
    ],
    # The exact grid is deterministic (node budgets, no wall-clock budgets),
    # so its cell counts are machine-independent: the fresh run must cover at
    # least as many cells and certify at least as many of them as the
    # committed baseline, and every cell's bracket must stay sound.
    "exact": [
        ("headline.sound", "bool_true", None),
        ("headline.cells", "min_ratio", 1.0),
        ("headline.exact_cells", "min_ratio", 1.0),
    ],
}


def lookup(doc, path):
    cur = doc
    for key in path.split("."):
        if not isinstance(cur, dict) or key not in cur:
            return None
        cur = cur[key]
    return cur


def key_paths(doc, prefix=""):
    """Every key path of a JSON document, e.g. "headline.cold_seconds";
    list elements collapse to the union of their keys ("cells[].family")."""
    paths = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(value, path)
    elif isinstance(doc, list):
        for value in doc:
            paths |= key_paths(value, prefix + "[]")
    return paths


def scale_cell(doc, family, nodes, m):
    """The cells[] entry of a scale record for (family, nodes) at top-level
    m, or None."""
    if doc.get("m") != m:
        return None
    for cell in doc.get("cells") or []:
        if cell.get("family") == family and cell.get("nodes") == nodes:
            return cell
    return None


def check_one(name, fresh_path, baseline_path, tolerance, failures):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)
    for path in sorted(key_paths(fresh) - key_paths(baseline)):
        failures.append(
            f"{name}:{path}: unknown field, schema drift? (the baseline "
            f"has no such key)"
        )
    for path, kind, limit in RULES[name]:
        label = f"{name}:{path}"
        if path.startswith("cell:"):
            path = path[len("cell:"):]
            family = lookup(fresh, "headline.family")
            nodes = lookup(fresh, "headline.nodes")
            m = fresh.get("m")
            fresh_cell = scale_cell(fresh, family, nodes, m)
            base_cell = scale_cell(baseline, family, nodes, m)
            label = f"{name}:cells[{family}, {nodes} nodes, m={m}].{path}"
            if fresh_cell is None:
                failures.append(f"{label}: fresh headline names no cell")
                continue
            if base_cell is None:
                failures.append(
                    f"{label}: no matching baseline cell (baseline "
                    f"m={baseline.get('m')!r}; rerun the fresh bench with "
                    f"the baseline's --m or regenerate the baseline)"
                )
                continue
            fv = lookup(fresh_cell, path)
            bv = lookup(base_cell, path)
        else:
            fv = lookup(fresh, path)
            bv = lookup(baseline, path)
        if fv is None or bv is None:
            failures.append(
                f"{label}: field missing "
                f"(fresh={fv!r}, baseline={bv!r}) — schema drift?"
            )
            continue
        if kind == "bool_true":
            if bv is True and fv is not True:
                failures.append(
                    f"{label}: baseline asserts the contract, fresh run "
                    f"reports {fv!r}"
                )
            else:
                print(f"check_bench_regression: {label}: OK ({fv!r})")
            continue
        if not isinstance(fv, (int, float)) or not isinstance(bv, (int, float)):
            failures.append(f"{label}: non-numeric ({fv!r} vs {bv!r})")
            continue
        if bv == 0:
            failures.append(f"{label}: baseline value is 0, ratio undefined")
            continue
        ratio = fv / bv
        if kind == "min_ratio":
            lo = limit / tolerance
            if ratio < lo:
                failures.append(
                    f"{label}: {fv:g} is {ratio:.3f}x the baseline {bv:g} "
                    f"(floor {lo:.3f}x)"
                )
            else:
                print(
                    f"check_bench_regression: {label}: OK "
                    f"({ratio:.3f}x >= {lo:.3f}x)"
                )
        elif kind == "max_ratio":
            hi = limit * tolerance
            if ratio > hi:
                failures.append(
                    f"{label}: {fv:g} is {ratio:.3f}x the baseline {bv:g} "
                    f"(ceiling {hi:.3f}x)"
                )
            else:
                print(
                    f"check_bench_regression: {label}: OK "
                    f"({ratio:.3f}x <= {hi:.3f}x)"
                )


def main(argv):
    args = argv[1:]
    tolerance = 1.0
    if args and args[0] == "--tolerance":
        if len(args) < 2:
            print(__doc__, file=sys.stderr)
            return 2
        tolerance = float(args[1])
        if tolerance <= 0:
            print("--tolerance must be positive", file=sys.stderr)
            return 2
        args = args[2:]
    if not args or len(args) % 3 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    failures = []
    for i in range(0, len(args), 3):
        name, fresh, baseline = args[i : i + 3]
        if name not in RULES:
            print(f"unknown benchmark {name!r}", file=sys.stderr)
            return 2
        check_one(name, fresh, baseline, tolerance, failures)
    if failures:
        for msg in failures:
            print(f"check_bench_regression: FAIL: {msg}", file=sys.stderr)
        return 1
    print("check_bench_regression: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
