"""Quality gate: does DNN-Opt still solve its problems as well as before?

A speed-up that changes floating-point rounding (for example training the
critic in float32) changes every trajectory, so bit-identity can no longer
say "same behaviour".  This gate says it with outcomes instead: seeded
DNN-Opt runs (default hyper-parameters, serial engine) on

* ``constrained_sphere``: ``ConstrainedSphere(4)``, 40 simulations;
* ``pressure_vessel``: ``PressureVessel`` (integer variables), 40;
* ``folded_cascode``: the folded-cascode OTA, 60 simulations;
* ``strongarm_latch``: the StrongARM latch, 50 simulations;

five seeds each.  Per problem it records the success rate and the median
evaluations-to-first-feasible (``repro.experiments.statistics``), the
quartiles of the per-seed best FoM, the per-seed values behind them and
the seconds the problem took.

    PYTHONPATH=src python benchmarks/bench_quality.py                 # all four
    PYTHONPATH=src python benchmarks/bench_quality.py --quick         # synthetic only
    PYTHONPATH=src python benchmarks/bench_quality.py --quick --check BENCH_quality.json

``BENCH_quality.json`` holds the numbers of the commit *before* a change
to the optimizer's numerics; record them there first, then run the change
with ``--check``.  It fails when, on any problem it ran, the change falls
outside the recorded band:

* more than one seed fewer reaches a feasible design;
* the median evaluations-to-first-feasible lies above the recorded runs'
  upper quartile (when both sides have feasible seeds);
* the median best FoM lies above the recorded upper quartile.

Lower is better for both, so doing better never fails the gate.  Every
run is seeded; on one host the gate is deterministic, and across hosts
only BLAS rounding moves it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.circuits import FoldedCascodeOTA, StrongArmLatch
from repro.core import DNNOpt, Study
from repro.experiments.statistics import algorithm_stats
from repro.problems import ConstrainedSphere, PressureVessel

SEEDS = range(5)
#: name -> (problem factory, simulation budget)
PROBLEMS = {
    "constrained_sphere": (lambda: ConstrainedSphere(4), 40),
    "pressure_vessel": (PressureVessel, 40),
    "folded_cascode": (lambda: FoldedCascodeOTA().problem(), 60),
    "strongarm_latch": (lambda: StrongArmLatch().problem(), 50),
}
SYNTHETIC = ("constrained_sphere", "pressure_vessel")
#: seeds that may lose feasibility before the gate fails
SUCCESS_SLACK = 1


def run_problem(name: str) -> dict:
    factory, budget = PROBLEMS[name]
    t0 = perf_counter()
    histories = [Study(DNNOpt(factory(), budget, seed)).run() for seed in SEEDS]
    seconds = perf_counter() - t0
    stats = algorithm_stats("DNN-Opt", histories)
    best = [h.best_fom for h in histories]
    return {
        "budget": budget,
        "seeds": list(SEEDS),
        "success_rate": stats.success_rate,
        "n_success": stats.n_success,
        "median_evals_to_first_feasible": stats.sims_to_feasible,
        "best_fom_quartiles": np.percentile(best, [25, 50, 75]).tolist(),
        "best_fom": best,
        "evals_to_first_feasible": [h.evals_to_first_feasible for h in histories],
        "seconds": round(seconds, 2),
    }


def run(quick: bool) -> dict:
    names = SYNTHETIC if quick else tuple(PROBLEMS)
    t0 = perf_counter()
    problems = {}
    for name in names:
        problems[name] = result = run_problem(name)
        q1, q2, q3 = result["best_fom_quartiles"]
        print(f"  {name:<19} success {result['success_rate']}, median evals to "
              f"first feasible {result['median_evals_to_first_feasible']}, best FoM "
              f"{q1:.4f}/{q2:.4f}/{q3:.4f} ({result['seconds']:.1f} s)", flush=True)
    gate_s = perf_counter() - t0
    print(f"  gate run time: {gate_s:.1f} s")
    return {
        "benchmark": "bench_quality",
        "quick": quick,
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "gate_s": round(gate_s, 2),
        "problems": problems,
    }


def check_against(results: dict, baseline_path: Path) -> int:
    recorded = json.loads(baseline_path.read_text())["problems"]
    failures = []
    for name, got in results["problems"].items():
        base = recorded[name]
        if got["n_success"] < base["n_success"] - SUCCESS_SLACK:
            failures.append(f"{name}: success {got['success_rate']} vs recorded "
                            f"{base['success_rate']}")
        firsts = [e for e in base["evals_to_first_feasible"] if e is not None]
        median_first = got["median_evals_to_first_feasible"]
        if firsts and median_first is not None:
            edge = float(np.percentile(firsts, 75))
            if median_first > edge:
                failures.append(f"{name}: median evals to first feasible "
                                f"{median_first:g} above recorded upper quartile {edge:g}")
        edge = base["best_fom_quartiles"][2]
        median_fom = got["best_fom_quartiles"][1]
        verdict = "ok" if median_fom <= edge else "OUTSIDE"
        print(f"check {name}: median best FoM {median_fom:.4f} vs recorded "
              f"{base['best_fom_quartiles'][1]:.4f} (upper quartile {edge:.4f}), "
              f"success {got['success_rate']} vs {base['success_rate']} -> {verdict}")
        if median_fom > edge:
            failures.append(f"{name}: median best FoM {median_fom:.4f} above recorded "
                            f"upper quartile {edge:.4f}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return int(bool(failures))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="synthetic problems only (the CI smoke)")
    parser.add_argument("--out", default="BENCH_quality.json",
                        help="where to write the results JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail if any problem falls outside this recorded band")
    args = parser.parse_args(argv)

    print(f"DNN-Opt quality gate, seeds {SEEDS.start}-{SEEDS.stop - 1}"
          f"{' (synthetic only)' if args.quick else ''}", flush=True)
    results = run(args.quick)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    if args.check and check_against(results, Path(args.check)):
        print(f"quality outside the band recorded in {args.check}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
