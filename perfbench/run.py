#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the model library and the perfbench binary from source (the
model's own sources under ../src, this directory's CMakeLists.txt),
runs one workload in its own process and re-prints the binary's JSON
result as the last line of standard output (or, with --workload all,
runs every workload, each in its own process, and prints one table):

    python3 perfbench/run.py --workload tpcc_up --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
checkpoints and span files to a work directory beside it. The exit
code is non-zero, and no result is printed, when the build or the run
fails; a run whose correctness checks fail prints its result with
"correct": false and exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcc_up", "specint_up", "tpcc_smp4", "sweep_fig08")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures --seconds plus its set-up; far beyond that is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(build_dir):
    """Configure once, then build incrementally; log to a file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("model sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail("perfbench binary missing after build: " + exe)
    return exe


def check_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        fail("perfbench printed no JSON result")
    if set(res) != RESULT_KEYS:
        fail("result keys %s != %s" % (sorted(res), sorted(RESULT_KEYS)))
    if res["attempted"] < 1:
        fail("perfbench attempted no operation")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(
                m["value"], (int, float)):
            fail("malformed metric " + name)
    return res


def run_workload(exe, work, workload, args):
    """Runs the perfbench binary for one workload in its own process."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--sweep-workers", str(args.sweep_workers)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            work, "%s-seed%d.spans.json" % (workload, args.seed))]
    if args.instrs:
        cmd += ["--instrs", str(args.instrs)]
    if args.force_digest_mismatch:
        cmd.append("--force-digest-mismatch")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s: run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail("%s: perfbench exited with code %d" % (workload, proc.returncode))
    res = check_result(lines[-1])
    return proc.stdout, res, proc.returncode == 0 and res["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' for a summary table")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--sweep-workers", type=int, default=2,
                    help="sweep_fig08 worker threads (pinned, <= nproc)")
    ap.add_argument("--instrs", type=int, default=0,
                    help="trace length per CPU override (smoke tests)")
    ap.add_argument("--force-digest-mismatch", action="store_true",
                    help="corrupt the reference digest (smoke tests)")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be an unsigned 64-bit integer")
    if not 1 <= args.sweep_workers <= len(os.sched_getaffinity(0)):
        ap.error("--sweep-workers must be between 1 and the CPUs available")

    root = build_root()
    exe = build(os.path.join(root, "perfbench"))
    work = os.path.join(root, "perfbench-work")
    os.makedirs(work, exist_ok=True)

    if args.workload != "all":
        out, _, ok = run_workload(exe, work, args.workload, args)
        sys.stdout.write(out)
        sys.exit(0 if ok else 1)

    # Every workload, each in its own process, as one table.
    all_ok = True
    print("%-12s %-28s %16s  %s" % ("workload", "metric", "value", "unit"))
    for w in WORKLOADS:
        _, res, ok = run_workload(exe, work, w, args)
        all_ok = all_ok and ok
        for name, m in res["metrics"].items():
            print("%-12s %-28s %16.6g  %s" % (w, name, m["value"], m["unit"]))
        print("%-12s %-28s %16.6g  %s" % (
            w, "fail_ratio", res["failed"] / res["attempted"],
            "%d/%d operations" % (res["failed"], res["attempted"])))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
