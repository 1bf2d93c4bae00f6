"""Figure-of-Merit function g(.) — Eq. 4 of the paper.

    g[f(x)] = w0 * f0(x) + sum_i min(1, max(0, wi * fi(x)))

operating on *normalized* performance rows (objective divided by its
reference scale, constraints in the ``fi <= 0`` violation form).  The
``max`` clip equates all designs once a constraint is met; the ``min`` clip
stops one badly-violated constraint from dominating.  The actor's training
loss (Eq. 5, :meth:`repro.core.Actor._loss`) computes the same function on
critic predictions, with its gradient written by hand.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["fom_normalized", "fom_from_raw"]


def fom_normalized(Fn: np.ndarray, w0: float, weights: np.ndarray) -> np.ndarray:
    """FoM for normalized rows ``[f0n, f1n.. fmn]``; returns shape ``(n,)``."""
    Fn = np.atleast_2d(np.asarray(Fn, dtype=np.float64))
    values = w0 * Fn[:, 0]
    if Fn.shape[1] > 1:
        clipped = np.clip(np.asarray(weights) * Fn[:, 1:], 0.0, 1.0)
        values = values + clipped.sum(axis=1)
    return values


def fom_from_raw(problem: Any, F_raw: np.ndarray) -> np.ndarray:
    """FoM directly from raw performance rows of ``problem``."""
    Fn = np.atleast_2d(problem.normalize(F_raw))
    return fom_normalized(Fn, problem.objective.weight, problem.constraint_weights())

