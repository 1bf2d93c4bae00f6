"""Shared state for the benchmark suite.

The Table II / Figure 3 pair (and Table IV / Figure 4) are two views of the
same multi-trial experiment; this module caches the comparison so the data
is produced once per pytest session.  Scales are the smoke defaults unless
``REPRO_FULL=1``.
"""

from __future__ import annotations

import functools
import os

from repro.circuits import FoldedCascodeOTA, StrongArmLatch
from repro.experiments import ExperimentScale, run_building_block_comparison


def bench_scale() -> ExperimentScale:
    """Benchmark-suite scale: tiny by default, paper-scale with REPRO_FULL=1."""
    if os.environ.get("REPRO_FULL") == "1":
        return ExperimentScale(n_trials=10, budget=500, de_budget=10_000,
                               industrial_budget=200, sa_budget=1200)
    return ExperimentScale(n_trials=2, budget=50, de_budget=150,
                           industrial_budget=60, sa_budget=150)


def bench_workers() -> int:
    """Trial-level parallelism knob: ``REPRO_WORKERS=N`` (default serial).

    Results are worker-count independent (per-trial seeding); only
    wall-clock changes, so set it to the machine's core count for the
    paper-scale ``REPRO_FULL=1`` runs.
    """
    return max(1, int(os.environ.get("REPRO_WORKERS", "1")))


@functools.lru_cache(maxsize=1)
def folded_cascode_comparison():
    return run_building_block_comparison(FoldedCascodeOTA, scale=bench_scale(),
                                         workers=bench_workers())


@functools.lru_cache(maxsize=1)
def latch_comparison():
    scale = bench_scale()
    if os.environ.get("REPRO_FULL") != "1":
        # The latch simulates ~3x slower; trim the smoke run further.
        scale = ExperimentScale(n_trials=1, budget=40, de_budget=100,
                                industrial_budget=scale.industrial_budget,
                                sa_budget=scale.sa_budget)
    return run_building_block_comparison(StrongArmLatch, scale=scale,
                                         workers=bench_workers())
