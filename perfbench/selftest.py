"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at tiny size, untraced and traced, through the same
   command line the benchmark is driven with, and checks that the result
   line has exactly the contract's keys, that the run is correct, that every
   metric BENCHMARK.json names is emitted with its unit (and no other), and
   that the traced and untraced runs give the same digests.
2. Runs ``gl2lab report-all`` and both batteries at full size at the default
   seed, and checks that the per-campaign digests of ``report-local`` and
   ``report-finite`` together equal those of the rows report-all prints.

Exits 0 when every check holds and prints one line per check.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import BATTERIES, WORKLOADS  # noqa: E402

DEFAULT_SEED = 20259
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, size, seed=7, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size],
        cwd=ROOT, text=True, capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def check_units(result, specs):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    numeric = all(isinstance(m["value"], (int, float)) and set(m) == {"value", "unit"}
                  for m in result["metrics"].values())
    return got == want and numeric


def report_all_digests():
    env = {k: v for k, v in os.environ.items()
           if k not in ("GL2LAB_MAX_ELEMS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "gl2lab.cli", "report-all"],
                          cwd=ROOT, env=env, text=True, capture_output=True,
                          timeout=170)
    report = json.loads(proc.stdout)
    return report["config"]["campaigns"], report["checks"]


def main():
    results = []

    def record(ok, what):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    for workload in WORKLOADS:
        d0, r0 = bench(workload, 0, "tiny")
        d1, r1 = bench(workload, 1, "tiny")
        for trace, result in ((0, r0), (1, r1)):
            record(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and isinstance(result["attempted"], int)
                   and result["attempted"] >= 1 and result["correct"],
                   f"{workload} trace={trace}: result line and verdict")
        record(check_units(r0, SPEC["end_to_end"]),
               f"{workload}: every end-to-end metric with its unit")
        record(check_units(r1, SPEC["per_layer"]),
               f"{workload}: every per-layer metric with its unit")
        record(bool(d0["digests"]) and d0["digests"] == d1["digests"],
               f"{workload}: traced and untraced digests agree")

    names, rows = report_all_digests()
    expected = {}
    at = 0
    battery_digests = {}
    for workload in BATTERIES:
        detail, result = bench(workload, 0, "full", seed=DEFAULT_SEED)
        record(result["correct"], f"{workload}: full size at the default seed")
        battery_digests.update(detail["digests"])
    for name in names:
        n = battery_digests[name]["checks"]
        text = json.dumps(rows[at:at + n], sort_keys=True, default=str)
        expected[name] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                          "checks": n}
        at += n
    record(at == len(rows) and expected == battery_digests,
           "report-local + report-finite digests equal report-all's rows")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
