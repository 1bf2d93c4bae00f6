"""Dispatch benchmark for the evaluation-service backends.

Times one large de-duplicated batch (the engine's post-cache hot path)
through ``serial``, ``process`` and ``remote`` (2 locally-spawned worker
server processes) on a latency-modeled problem: each evaluation
sleeps ``--latency`` ms before computing, the external-simulator model
(license queue, subprocess SPICE, simulation farm RPC) where dispatch
overlap — not CPU count — sets the speedup.  That makes the measured
*ratios* portable across hosts, unlike CPU-bound throughput:

    PYTHONPATH=src python benchmarks/bench_service_dispatch.py
    PYTHONPATH=src python benchmarks/bench_service_dispatch.py --quick

Results are written to ``BENCH_service.json`` (override with ``--out``) so
the dispatch-efficiency trajectory is tracked across PRs.  ``--check
BASELINE.json`` turns the run into a regression gate: it fails when the
measured process-vs-serial or remote-vs-serial speedup drops more than 40%
below the committed baseline's — a dispatcher that stops overlapping the
waits (serialized chunks) shows up immediately.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import EvalEngine
from repro.core.service import spawn_local_worker
from repro.problems import LatencyProblem, Sphere

#: fraction of the baseline speedup a measured speedup must retain.
REGRESSION_FLOOR = 0.6


def time_backend(make_engine, problem, batches: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """Best-of-reps seconds for one full batch dispatch.

    Every rep gets a fresh engine *and* a fresh design batch, so no rep is
    ever answered from a cache — neither the coordinator's nor a persistent
    remote worker's — and the backends stay comparable.  Each engine first
    answers an untimed warm-up design per worker, so pool start-up and
    connection set-up are not in the timing.
    """
    best, rows = float("inf"), []
    for rep, X in enumerate(batches):
        with make_engine() as engine:
            warm_rng = np.random.default_rng(10_000 + rep)
            engine.evaluate_batch(problem, problem.space.sample(warm_rng, engine.workers))
            t0 = perf_counter()
            rows.append(engine.evaluate_batch(problem, X))
            best = min(best, perf_counter() - t0)
    return best, np.vstack(rows)


def run(args) -> dict:
    problem = LatencyProblem(Sphere(6), args.latency / 1e3)
    batches = [problem.space.sample(np.random.default_rng(rep), args.batch)
               for rep in range(args.reps)]

    procs = []
    try:
        hosts = []
        for _ in range(args.shards):
            proc, host = spawn_local_worker()
            procs.append(proc)
            hosts.append(host)

        backends = {
            "serial": lambda: EvalEngine("serial"),
            "process": lambda: EvalEngine("process", workers=args.workers),
            "remote": lambda: EvalEngine("remote", hosts=hosts),
        }
        results: dict[str, float] = {}
        reference = None
        identical = True
        for name, make_engine in backends.items():
            seconds, rows = time_backend(make_engine, problem, batches)
            results[f"{name}_s"] = round(seconds, 4)
            if reference is None:
                reference = rows
            else:
                identical = identical and np.array_equal(reference, rows)
            print(f"  {name:>7}: {seconds:7.3f} s  "
                  f"({args.batch / seconds:8.1f} designs/s)")
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()

    speedup = {
        "remote_vs_serial": round(results["serial_s"] / results["remote_s"], 3),
        "process_vs_serial": round(results["serial_s"] / results["process_s"], 3),
    }
    print(f"  rows identical across backends: {identical}")
    for name, ratio in speedup.items():
        print(f"  {name}: {ratio:.2f}x")
    return {
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "config": {"batch": args.batch, "latency_ms": args.latency,
                   "workers": args.workers, "shards": args.shards,
                   "reps": args.reps, "quick": args.quick},
        "results": results,
        "speedup": speedup,
        "identical": identical,
    }


def check(report: dict, baseline_path: str) -> int:
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    if not report["identical"]:
        failures.append("backends disagreed on the evaluated rows")
    for name in ("process_vs_serial", "remote_vs_serial"):
        floor = REGRESSION_FLOOR * baseline["speedup"][name]
        got = report["speedup"][name]
        status = "ok" if got >= floor else "REGRESSION"
        print(f"  check {name}: {got:.2f}x vs floor {floor:.2f}x "
              f"(baseline {baseline['speedup'][name]:.2f}x) -> {status}")
        if got < floor:
            failures.append(f"{name} {got:.2f}x below floor {floor:.2f}x")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("service dispatch speedups within baseline envelope")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=64,
                        help="designs per dispatched batch")
    parser.add_argument("--latency", type=float, default=20.0,
                        help="modeled per-evaluation latency in ms")
    parser.add_argument("--workers", type=int, default=8,
                        help="process pool size")
    parser.add_argument("--shards", type=int, default=2,
                        help="local worker server processes for remote")
    parser.add_argument("--reps", type=int, default=2,
                        help="repetitions per backend (best rep is kept)")
    parser.add_argument("--quick", action="store_true",
                        help="small batch for CI smoke")
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="fail if speedups regress vs this baseline")
    args = parser.parse_args()
    if args.quick:
        args.batch, args.latency, args.reps = 32, 10.0, 1

    print(f"service dispatch: batch {args.batch} x {args.latency:g} ms latency, "
          f"{args.workers} pool workers, {args.shards} shards")
    report = run(args)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.check:
        sys.exit(check(report, args.check))
