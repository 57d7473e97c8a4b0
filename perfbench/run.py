#!/usr/bin/env python3
"""Build and run the netsel benchmark.

    python3 perfbench/run.py --workload service|query|churn --seed N \
        --seconds S --trace 0|1

Run from the repository root. The script configures and builds the
benchmark binary from source into .bench_build/perfbench (perfbench/
CMakeLists.txt compiles the library modules under src/), runs one workload,
and prints the binary's result object as the last line of stdout. Before it
comes a "fingerprint" line: CPU model, core count, compiler, flags, build
type, git commit (when the tree is a git checkout), a digest of the
sources, and the share of CPU time the hypervisor stole during the run, so
a figure is never compared with one from another machine or build, and a
run on a contended host shows as such. The same record, with the result,
is written to .bench_out/result-<workload>-<seed>-trace<t>.json; traced
runs also leave their spans in .bench_out/trace-<workload>-<seed>.json.

Exit status: 0 when the run's checks passed, 1 on a failed check, a failed
build or a timeout, 2 on bad arguments.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "netsel_perfbench")
WORKLOADS = ("service", "query", "churn")
# A run measures for --seconds and then checks; nothing legitimate takes
# this long, so a hung binary is killed rather than waited on forever.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no netsel sources under {ROOT}/src; cannot build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "netsel_perfbench", "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                log("build failed: " + " ".join(cmd))
                return False
    return True


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the paths and contents of src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_ticks():
    """(steal, total) jiffies from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def fingerprint(build_info):
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    fp = {"cpu_model": cpu_model(), "nproc": usable,
          "cpu_count": os.cpu_count()}
    fp.update(build_info)
    fp["git_commit"] = git_commit()
    fp["source_sha256"] = source_digest()
    return fp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    steal0, total0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    steal1, total1 = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark exited {proc.returncode} without a result")
        return 1
    build_info = {}
    for line in lines[:-1]:
        if line.startswith("build "):
            build_info = json.loads(line[len("build "):])
        else:
            print(line)
    fp = fingerprint(build_info)
    # Share of all CPU time the hypervisor gave to other guests while the
    # run lasted: on a shared host the timings move with it.
    fp["host_steal_frac"] = ((steal1 - steal0) / (total1 - total0)
                             if total1 > total0 else None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fp, "result": result}
    path = os.path.join(
        OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
