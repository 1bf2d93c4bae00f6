"""Latency-modeling problem wrapper for dispatch benchmarks.

The bundled SPICE engine is pure CPU-bound python, so dispatch-layer
speedups (thread overlap, remote sharding) are invisible on a small
host.  :class:`LatencyProblem` models the production situation instead — an
*external* simulator behind a license queue, subprocess or farm RPC — by
sleeping a fixed interval before every evaluation.  Wait-bound evaluations
overlap under any concurrent backend regardless of core count, which makes
benchmark speedup ratios portable across machines.

The wrapper is a plain importable class (not a closure), so it pickles
cleanly through process pools and the remote evaluation service — anything
shipped to ``python -m repro.core.service`` workers must be importable on
the worker host.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["LatencyProblem"]


class LatencyProblem:
    """Delegating wrapper that adds fixed per-evaluation latency.

    Everything except :meth:`evaluate`/:meth:`evaluate_batch` is forwarded
    to the wrapped problem, so optimizers and engines see an ordinary
    :class:`~repro.problems.base.OptimizationProblem`.
    """

    def __init__(self, problem, latency_s: float):
        self._problem = problem
        self._latency_s = float(latency_s)

    def evaluate(self, x):
        time.sleep(self._latency_s)
        return self._problem.evaluate(x)

    def evaluate_batch(self, X):
        """One latency-paying :meth:`evaluate` per design, in order."""
        return np.vstack([self.evaluate(x) for x in np.atleast_2d(X)])

    def __getattr__(self, name):
        if name.startswith("_"):  # keep pickle/copy protocol lookups local
            raise AttributeError(name)
        return getattr(self._problem, name)

    def __repr__(self) -> str:
        return f"LatencyProblem({self._problem!r}, latency_s={self._latency_s})"
