#!/usr/bin/env python3
"""Self-test of the pipeline benchmark at tiny size (n≈2k–5k, seconds total).

    python3 pipebench/tests/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it checks
that
  - an untraced run prints exactly the end-to-end metrics, each with the unit
    BENCHMARK.json gives, and passes its correctness checks;
  - a traced run prints exactly the per-layer metrics, with units, and its
    spans cover at least 95% of the traced pass;
  - a release with the noise zeroed fails the noise check and a release with
    one byte flipped fails the hash check — so the checks can fail.
Exits non-zero on the first mismatch.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "pipebench", "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        sys.exit(f"FAIL {cmd}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        sys.exit(f"FAIL {workload}: no pass attempted")
    return result, proc.stderr


def expect_metrics(workload, result, defs):
    want = {d["name"]: d["unit"] for d in defs}
    got = result["metrics"]
    if set(got) != set(want):
        sys.exit(f"FAIL {workload}: metrics {sorted(got)} != {sorted(want)}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not math.isfinite(value):
            sys.exit(f"FAIL {workload}: {name} = {got[name]}, unit {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        result, _ = run(workload, 0)
        expect_metrics(workload, result, bench["end_to_end"])
        if not result["correct"] or result["failed"] != 0:
            sys.exit(f"FAIL {workload}: clean run failed its checks")
        if any(m["value"] <= 0 for m in result["metrics"].values()):
            sys.exit(f"FAIL {workload}: an end-to-end metric is not positive")

        result, _ = run(workload, 1)
        expect_metrics(workload, result, bench["per_layer"])
        coverage = result["metrics"]["bench.coverage"]["value"]
        if not result["correct"] or coverage < 0.95:
            sys.exit(f"FAIL {workload}: traced run, coverage {coverage}")

        for doctor, check in (("zero-noise", "noise:"), ("flip-byte", "hash:")):
            result, stderr = run(workload, 0, "--doctor", doctor)
            rejected = result["failed"] == result["attempted"]
            if result["correct"] or not rejected or check not in stderr:
                sys.exit(f"FAIL {workload}: {doctor} release was not rejected "
                         f"by the {check[:-1]} check")
        print(f"ok   {workload}")
    print("selftest passed")


if __name__ == "__main__":
    main()
