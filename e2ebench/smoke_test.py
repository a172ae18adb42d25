#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark itself.

    python3 e2ebench/smoke_test.py

1. A short run of every workload prints every end-to-end metric of
   BENCHMARK.json, by name and with its unit, and is correct.
2. A short traced run prints every per-layer metric with its unit.
3. With one expected answer digest deliberately corrupted, the gate
   fails the run (correct=false, non-zero exit) on an analyst workload
   and on the wire workload.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"


def run(workload, trace, corrupt=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
         "--corrupt-digest", str(corrupt)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


def check(condition, what, proc=None):
    if not condition:
        if proc is not None:
            sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = [w["name"] for w in bench["workloads"]]

    for trace, names in ((0, workloads), (1, [workloads[0], workloads[-1]])):
        for workload in names:
            code, result, proc = run(workload, trace)
            what = f"{workload} trace={trace}"
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what} runs correctly", proc)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == expected[trace],
                  f"{what} prints every metric with its unit", proc)
            for name, unit in expected[trace].items():
                check(f"{name}: " in proc.stdout and f" {unit}" in proc.stdout,
                      f"{what} reports {name} in {unit}", proc)

    for workload in (workloads[0], workloads[-1]):
        code, result, proc = run(workload, 0, corrupt=1)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              f"{workload}: a corrupted expected digest fails the run", proc)
    print("smoke test passed")


if __name__ == "__main__":
    main()
