"""Pipelined vs. barrier dispatch benchmark for the Study driver.

Measures what the ask/tell inversion bought: with ``Study(pipeline_depth=2)``
the optimizer's *proposal* work overlaps the batch in flight on the engine,
so one iteration costs ``max(ask, eval)`` instead of ``ask + eval``.

Two measurements:

* **latency-modeled** (guarded) — a proposer that sleeps ``--ask-latency``
  per batch (standing in for actor/critic retraining) over a problem that
  sleeps ``--latency`` per evaluation (the external-simulator model), on the
  process backend.  Both sides are wait-bound, so the measured *ratio* is
  machine-portable, like ``BENCH_service.json``; the ideal is 2.0x when the
  two latencies match.
* **DNN-Opt** (reported, not guarded) — the real optimizer with its real
  retraining cost on the same latency-modeled problem.  The ratio depends
  on how fast this host trains the networks, so it is informative only.

Pipelined proposals may condition on a one-batch-stale archive; the bench
asserts the recorded histories still *replay* — every row equals the
deterministic evaluation of its design — and that the latency-modeled
(stateless) histories are bit-identical across modes.

    PYTHONPATH=src python benchmarks/bench_pipeline.py
    PYTHONPATH=src python benchmarks/bench_pipeline.py --quick

Results go to ``BENCH_pipeline.json`` (override with ``--out``); ``--check
BASELINE.json`` fails when the pipelined-vs-barrier speedup drops below
``REGRESSION_FLOOR`` of the committed baseline — a driver that stops
overlapping (lost submit/gather path, serialized pipeline) shows up
immediately.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import DNNOpt, EvalEngine, Optimizer, Study
from repro.problems import LatencyProblem, Sphere

#: fraction of the baseline speedup a measured speedup must retain.  0.72 of
#: the recorded 1.58x keeps the floor at 1.14x, no looser than the 1.12x of
#: the thread-backend baseline: each pool batch pays a few ms of IPC that
#: equal ask and eval latencies cannot hide, so the process ratio is lower.
REGRESSION_FLOOR = 0.72


class SlowProposer(Optimizer):
    """Latency-modeled asker: every batch costs a fixed proposal delay.

    Stands in for any model-based optimizer whose retraining dominates its
    ask — proposals themselves are random (independent of pending tells),
    so histories are bit-identical at any pipeline depth and the bench can
    assert correctness alongside the timing.
    """

    name = "SlowProposer"

    def __init__(self, problem, budget, seed=0, *, ask_latency_s=0.05,
                 batch=8, engine=None):
        super().__init__(problem, budget, seed, engine=engine)
        self.ask_latency_s = float(ask_latency_s)
        self.batch = int(batch)

    def _ask(self, k):
        time.sleep(self.ask_latency_s)
        count = self.batch if k is None else k
        return np.vstack([self.problem.space.sample(self.rng, 1)
                          for _ in range(count)])


def time_study(make_optimizer, make_engine, depth: int):
    """Wall-clock one full study run; returns (seconds, history).

    The engine first answers an untimed warm-up batch, so its process
    pool's start-up is not in the timing.
    """
    with make_engine() as engine:
        optimizer = make_optimizer(engine)
        space = optimizer.problem.space
        engine.evaluate_batch(optimizer.problem,
                              space.sample(np.random.default_rng(1), engine.workers))
        study = Study(optimizer, pipeline_depth=depth)
        t0 = perf_counter()
        history = study.run()
        return perf_counter() - t0, history


def run(args) -> dict:
    problem = LatencyProblem(Sphere(6), args.latency / 1e3)
    make_engine = lambda: EvalEngine("process", workers=args.batch, cache_size=0)

    # -- latency-modeled proposer (the guarded, portable ratio) ------------
    make_proposer = lambda engine: SlowProposer(
        problem, args.budget, seed=0, ask_latency_s=args.ask_latency / 1e3,
        batch=args.batch, engine=engine)
    barrier_s, h_barrier = time_study(make_proposer, make_engine, depth=1)
    pipelined_s, h_pipelined = time_study(make_proposer, make_engine, depth=2)
    identical = (np.array_equal(h_barrier.X, h_pipelined.X)
                 and np.array_equal(h_barrier.F, h_pipelined.F))
    replays = bool(np.array_equal(problem.evaluate_batch(h_pipelined.X),
                                  h_pipelined.F))
    speedup = barrier_s / pipelined_s
    print(f"  modeled  barrier  : {barrier_s:7.3f} s")
    print(f"  modeled  pipelined: {pipelined_s:7.3f} s  ({speedup:.2f}x, "
          f"ideal {(args.ask_latency + args.latency) / max(args.ask_latency, args.latency):.2f}x)")
    print(f"  histories identical across modes: {identical}; replay ok: {replays}")

    # -- real DNN-Opt retraining overlapped with modeled sim latency -------
    dnn = {}
    if not args.skip_dnnopt:
        make_dnn = lambda engine: DNNOpt(
            problem, args.dnn_budget, seed=0, n_init=2 * args.batch,
            batch_size=args.batch, critic_epochs=8, actor_epochs=8,
            critic_hidden=(32, 32), actor_hidden=(32, 32), max_pseudo=2000,
            engine=engine)
        dnn_barrier_s, hd1 = time_study(make_dnn, make_engine, depth=1)
        dnn_pipelined_s, hd2 = time_study(make_dnn, make_engine, depth=2)
        dnn_replays = bool(np.array_equal(problem.evaluate_batch(hd2.X), hd2.F))
        dnn = {
            "dnnopt_barrier_s": round(dnn_barrier_s, 4),
            "dnnopt_pipelined_s": round(dnn_pipelined_s, 4),
            "dnnopt_speedup": round(dnn_barrier_s / dnn_pipelined_s, 3),
            "dnnopt_replays": dnn_replays,
        }
        print(f"  DNN-Opt  barrier  : {dnn_barrier_s:7.3f} s")
        print(f"  DNN-Opt  pipelined: {dnn_pipelined_s:7.3f} s  "
              f"({dnn['dnnopt_speedup']:.2f}x); replay ok: {dnn_replays}")

    return {
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "config": {"budget": args.budget, "batch": args.batch,
                   "latency_ms": args.latency, "ask_latency_ms": args.ask_latency,
                   "dnn_budget": args.dnn_budget, "quick": args.quick},
        "results": {"barrier_s": round(barrier_s, 4),
                    "pipelined_s": round(pipelined_s, 4), **dnn},
        "speedup": {"pipelined_vs_barrier": round(speedup, 3)},
        "identical": identical,
        "replays": replays,
    }


def check(report: dict, baseline_path: str) -> int:
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    if not report["identical"]:
        failures.append("pipelined history diverged from barrier history")
    if not report["replays"]:
        failures.append("pipelined history does not replay to its evaluations")
    floor = REGRESSION_FLOOR * baseline["speedup"]["pipelined_vs_barrier"]
    got = report["speedup"]["pipelined_vs_barrier"]
    status = "ok" if got >= floor else "REGRESSION"
    print(f"  check pipelined_vs_barrier: {got:.2f}x vs floor {floor:.2f}x "
          f"(baseline {baseline['speedup']['pipelined_vs_barrier']:.2f}x) -> {status}")
    if got < floor:
        failures.append(f"pipelined_vs_barrier {got:.2f}x below floor {floor:.2f}x")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("pipelined dispatch speedup within baseline envelope")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=64,
                        help="simulations per latency-modeled study")
    parser.add_argument("--batch", type=int, default=8,
                        help="designs per ask batch (= process pool size)")
    parser.add_argument("--latency", type=float, default=60.0,
                        help="modeled per-evaluation latency in ms")
    parser.add_argument("--ask-latency", type=float, default=60.0,
                        help="modeled per-batch proposal latency in ms")
    parser.add_argument("--dnn-budget", type=int, default=48,
                        help="simulations for the DNN-Opt measurement")
    parser.add_argument("--skip-dnnopt", action="store_true",
                        help="only run the guarded latency-modeled ratio")
    parser.add_argument("--quick", action="store_true",
                        help="small budgets for CI smoke")
    parser.add_argument("--out", default="BENCH_pipeline.json")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="fail if the speedup regresses vs this baseline")
    args = parser.parse_args()
    if args.quick:
        args.budget, args.latency, args.ask_latency = 32, 40.0, 40.0
        args.dnn_budget = 32

    print(f"pipeline dispatch: budget {args.budget}, batch {args.batch}, "
          f"{args.latency:g} ms/eval + {args.ask_latency:g} ms/ask")
    report = run(args)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.check:
        sys.exit(check(report, args.check))
