#!/usr/bin/env python3
"""Smoke test of the repository benchmark (perfbench/).

Runs every workload of BENCHMARK.json at a tiny trace length through
the benchmark's own command and checks that:

  * an untraced run prints every end-to-end metric, and a traced run
    every per-layer metric, each with the unit BENCHMARK.json names,
    and that all correctness checks pass;
  * the deterministic per-layer metrics repeat exactly between two
    traced runs of the same seed;
  * a forced stats-digest mismatch is counted as a failed operation
    and makes the run exit non-zero.

Run from the repository root (builds on first use):

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--instrs", "20000", "--seconds", "0"]
# Simulated quantities and counts: identical for a given seed on any
# host and under any speed-only change.
DETERMINISTIC = [
    "sim.visited_cycles", "sim.elided_cycles", "cpu.ticks",
    "cpu.sim_ipc", "cpu.sim_cycles", "mem.accesses",
    "mem.l1i_miss_ratio", "mem.l1d_miss_ratio", "mem.l2_miss_ratio",
    "mem.bus_transactions", "obs.export_bytes", "ckpt.bytes",
    "exp.points", "exp.synth_sets", "model.err_vs_physical_pct",
]

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL " + msg)


def run(bench, workload, trace, *extra, seed=5):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.strip().split("\n")
    try:
        res = json.loads(lines[-1])
    except ValueError:
        res = None
    return proc.returncode, res


def check_metrics(res, defs, label):
    got = res["metrics"]
    check(set(got) == {d["name"] for d in defs},
          "%s: metric names differ from BENCHMARK.json: %s" %
          (label, sorted(set(got) ^ {d["name"] for d in defs})))
    for d in defs:
        m = got.get(d["name"])
        if m is None:
            continue
        check(m["unit"] == d["unit"], "%s: %s unit %r != %r" %
              (label, d["name"], m["unit"], d["unit"]))
        check(isinstance(m["value"], (int, float)) and
              math.isfinite(m["value"]) and m["value"] >= 0,
              "%s: %s value %r" % (label, d["name"], m["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, defs in ((0, bench["end_to_end"]),
                            (1, bench["per_layer"])):
            label = "%s trace=%d" % (name, trace)
            before = len(failures)
            rc, res = run(bench, name, trace)
            check(rc == 0, "%s: exit code %d" % (label, rc))
            if res is None:
                check(False, label + ": no JSON result")
                continue
            check(res["correct"] and res["failed"] == 0,
                  "%s: %d of %d operations failed" %
                  (label, res["failed"], res["attempted"]))
            check_metrics(res, defs, label)
            if trace:
                _, again = run(bench, name, trace)
                for k in DETERMINISTIC:
                    check(again is not None and
                          again["metrics"][k] == res["metrics"][k],
                          "%s: %s differs between identical runs" %
                          (label, k))
            if len(failures) == before:
                print("ok   %s (%d operations)" % (label, res["attempted"]))

    name = bench["workloads"][0]["name"]
    before = len(failures)
    rc, res = run(bench, name, 0, "--force-digest-mismatch")
    check(rc != 0, "forced digest mismatch: exit code 0")
    check(res is not None and not res["correct"] and
          0 < res["failed"] <= res["attempted"],
          "forced digest mismatch not counted as a failure: %r" % (res,))
    if len(failures) == before:
        print("ok   forced digest mismatch counted (%d of %d failed)" %
              (res["failed"], res["attempted"]))

    if failures:
        print("%d smoke check(s) failed" % len(failures))
        sys.exit(1)
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()
