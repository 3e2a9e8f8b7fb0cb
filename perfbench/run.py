#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

The first form builds the library, the wilis_cli worker and the
harness from source into .bench_build/ at the repository root (a
no-op once built), runs one workload and forwards the harness output,
whose last line is the result JSON. The second runs every workload
untraced, then one traced run, and prints every metric by name with
its unit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "wilis_perfbench")
CALIBRATION = os.path.join(ROOT, "data", "network_calibration.txt")
PINNED = os.path.join(HERE, "pinned_digests.txt")
# The simulator sources the benchmark builds; without them it cannot run.
REQUIRED = [
    os.path.join(ROOT, "src", "sim", "campaign.hh"),
    os.path.join(ROOT, "examples", "wilis_cli.cpp"),
    CALIBRATION,
]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_checked(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def env():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    e = dict(os.environ)
    e["TMPDIR"] = tmp
    return e


def build():
    """Configure once, then build; output goes to stderr."""
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        sys.exit("perfbench: no simulator sources here (missing %s)"
                 % ", ".join(os.path.relpath(p, ROOT) for p in missing))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for cmd in steps:
        if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                       env=env()) != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def harness_cmd(workload, seed, seconds, trace, pinned=PINNED):
    workdir = os.path.join(BUILD, "work", workload)
    os.makedirs(workdir, exist_ok=True)
    return [HARNESS, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", workdir, "--calibration", CALIBRATION,
            "--pinned", pinned]


def capture(cmd):
    """Run the harness, returning its stdout lines (None on failure)."""
    out = os.path.join(BUILD, "tmp", "harness.out")
    with open(out, "w") as f:
        code = run_checked(cmd, RUN_TIMEOUT_S, stdout=f, env=env())
    if code != 0:
        return None
    with open(out) as f:
        return f.read().splitlines()


def report(seed, seconds):
    rows = []
    ok = True
    names = workloads()
    for w in names:
        lines = capture(harness_cmd(w, seed, seconds, 0))
        res = json.loads(lines[-1]) if lines else {"correct": False,
                                                   "metrics": {}}
        ok = ok and res["correct"]
        for k, m in res["metrics"].items():
            rows.append((w, k, m["value"], m["unit"]))
    lines = capture(harness_cmd(names[0], seed, seconds, 1))
    traced = json.loads(lines[-1]) if lines else {"correct": False,
                                                  "metrics": {}}
    ok = ok and traced["correct"]
    for k, m in traced["metrics"].items():
        rows.append(("traced", k, m["value"], m["unit"]))
    for w, k, v, u in rows:
        print("%-16s %-34s %16.6g %s" % (w, k, v, u))
    print("correct: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    args = ap.parse_args()
    build()
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload not in workloads():
        sys.exit("perfbench: unknown workload %r" % args.workload)
    code = run_checked(harness_cmd(args.workload, args.seed, args.seconds,
                                   args.trace), RUN_TIMEOUT_S, env=env())
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
