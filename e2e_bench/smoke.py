#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload at a tiny budget (``run.py --smoke``), untraced and
traced, and checks that

* each run exits 0 and reports ``correct: true``;
* every metric name matches ``[A-Za-z0-9_.-]+``;
* the metric names, units and directions, and the workload names, agree
  with ``BENCHMARK.json`` at the root of the checkout.

Run it from anywhere::

    python3 e2e_bench/smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    declared = {"end_to_end": run.END_TO_END, "per_layer": run.PER_LAYER}
    for key, table in declared.items():
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(table):
            problems.append(f"BENCHMARK.json {key} differs from run.py: {listed} != {table}")
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {workloads} != {sorted(run.WORKLOADS)}")

    for workload in workloads:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300, check=False)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            for name in result["metrics"]:
                if not NAME.fullmatch(name):
                    problems.append(f"{label}: bad metric name {name!r}")
            got = [(n, m["unit"]) for n, m in result["metrics"].items()]
            want = [(n, u) for n, u, _ in table]
            if got != want:
                problems.append(f"{label}: metrics {got} != {want}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    problems.append(f"{label}: {name} is not a number")
            print(f"ok  {label}: attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(result['metrics'])}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
