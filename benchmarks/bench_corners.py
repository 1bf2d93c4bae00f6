"""Scenario subsystem benchmark: gating savings + parallel corner fan-out.

Two figures of merit for :class:`~repro.scenarios.CornerProblem`:

* **gating_sims_ratio** — simulations a full 4-corner fan-out would cost
  divided by what the adaptive gate actually spends on a seeded
  ``ConstrainedSphere`` run (nominal-first screening; only promising
  designs fan out).  Deterministic — seeded optimizer, exact counter —
  so CI can guard it tightly.
* **parallel_vs_serial** — wall-clock speedup of the same corner fan-out
  on a 4-worker process engine over the serial engine, measured on a
  latency-modeled problem (the external-simulator regime where dispatch
  overlap, not CPU count, sets throughput).  The fan-out submits every
  corner batch before gathering any, so corners of a design overlap, and
  every corner variant runs on the one pool.  Each engine first answers an
  untimed warm-up fan-out, so the pool's start-up is not in the timing.

    PYTHONPATH=src python benchmarks/bench_corners.py
    PYTHONPATH=src python benchmarks/bench_corners.py --quick

Results go to ``BENCH_corners.json`` (override with ``--out``); ``--check
BASELINE.json`` fails when either metric drops below ``REGRESSION_FLOOR``
of the committed baseline's.
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

from repro.baselines import RandomSearch
from repro.core import EvalEngine, Study
from repro.problems import ConstrainedSphere, LatencyProblem, Sphere
from repro.scenarios import CornerProblem, ScenarioSet

#: fraction of the baseline a measured metric must retain; 0.61 of the
#: recorded 1.97x keeps the fan-out floor at 1.20x.
REGRESSION_FLOOR = 0.61


def bench_gating(budget: int) -> tuple[float, dict]:
    """Sims spent by the adaptive gate vs an ungated full fan-out."""
    scenarios = ScenarioSet.typical()
    problem = CornerProblem(ConstrainedSphere(4), scenarios,
                            gate_margin=0.5, gate_warmup=8)
    with EvalEngine() as engine:
        history = Study(RandomSearch(problem, budget, seed=0),
                        engine=engine).run()
        spent = int(engine.counters_snapshot()["n_sim_calls"])
    stats = history.summary()["scenarios"]
    full = budget * len(scenarios)  # every design at every corner
    assert spent == budget + stats["corner_sims"]
    return round(full / spent, 3), {
        "designs": budget,
        "full_fanout_sims": full,
        "gated_sims": spent,
        "sims_saved": stats["corner_sims_saved"],
        "gated_designs": stats["gated"],
    }


def bench_parallel(batch: int, latency_ms: float, workers: int) -> tuple[float, dict]:
    """Wall-clock: corner fan-out on a process engine vs the serial engine."""
    scenarios = ScenarioSet.typical()
    rng = np.random.default_rng(0)

    def timed(backend_kwargs) -> float:
        problem = CornerProblem(LatencyProblem(Sphere(4), latency_ms / 1e3),
                                scenarios)
        warm_up = problem.space.sample(rng, workers)
        X = problem.space.sample(rng, batch)
        with EvalEngine(**backend_kwargs) as engine:
            engine.evaluate_batch(problem, warm_up)
            t0 = perf_counter()
            engine.evaluate_batch(problem, X)
            return perf_counter() - t0

    serial_s = timed({})
    parallel_s = timed({"backend": "process", "workers": workers})
    return round(serial_s / parallel_s, 3), {
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "corner_sims": batch * len(scenarios),
    }


def run(args) -> dict:
    gating_ratio, gating = bench_gating(args.budget)
    print(f"  gating: {gating['gated_sims']} sims vs "
          f"{gating['full_fanout_sims']} full fan-out "
          f"({gating['sims_saved']} saved) -> {gating_ratio:.2f}x")
    parallel_ratio, parallel = bench_parallel(args.batch, args.latency,
                                              args.workers)
    print(f"  fan-out: serial {parallel['serial_s']:.3f} s vs "
          f"{args.workers}-worker process {parallel['parallel_s']:.3f} s "
          f"-> {parallel_ratio:.2f}x")
    return {
        "host": {"machine": platform.machine(),
                 "python": platform.python_version(), "cpus": os.cpu_count()},
        "config": {"budget": args.budget, "batch": args.batch,
                   "latency_ms": args.latency, "workers": args.workers,
                   "quick": args.quick},
        "results": {"gating": gating, "parallel": parallel},
        "speedup": {"gating_sims_ratio": gating_ratio,
                    "parallel_vs_serial": parallel_ratio},
    }


def check(report: dict, baseline_path: str) -> int:
    baseline = json.loads(Path(baseline_path).read_text())
    failures = 0
    for name in ("gating_sims_ratio", "parallel_vs_serial"):
        floor = REGRESSION_FLOOR * baseline["speedup"][name]
        got = report["speedup"][name]
        status = "ok" if got >= floor else "REGRESSION"
        print(f"  check {name}: {got:.2f}x vs floor {floor:.2f}x "
              f"(baseline {baseline['speedup'][name]:.2f}x) -> {status}")
        if got < floor:
            failures += 1
    if failures:
        print(f"FAIL: {failures} scenario metric(s) below the baseline floor")
        return 1
    print("scenario gating + fan-out within baseline envelope")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=64,
                        help="designs for the gating run")
    parser.add_argument("--batch", type=int, default=24,
                        help="designs per wall-clock fan-out phase")
    parser.add_argument("--latency", type=float, default=20.0,
                        help="modeled per-evaluation latency in ms")
    parser.add_argument("--workers", type=int, default=4,
                        help="process-engine workers for the parallel phase")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke")
    parser.add_argument("--out", default="BENCH_corners.json")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="fail if a metric regresses vs this baseline")
    args = parser.parse_args()
    if args.quick:
        args.budget, args.batch, args.latency = 48, 12, 10.0

    print(f"corners: {args.budget}-design gated run + "
          f"{args.batch}x4-corner fan-out at {args.latency:g} ms latency")
    report = run(args)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.check:
        sys.exit(check(report, args.check))
