"""Newton-Raphson solver with the homotopy fallbacks used by the analyses.

The solver works on assembled :class:`~repro.spice.mna.System` objects: a
``build(x)`` callback re-stamps the Jacobian/residual at the current iterate.
Robustness features mirror production SPICE engines:

* per-iteration step limiting (node voltages move at most ``vlimit`` volts),
* ``gmin`` stepping — a shrinking conductance from every node to ground,
* source stepping — ramping all independent sources from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import profile
from .errors import ConvergenceError

__all__ = ["NewtonResult", "newton_batch", "newton_solve", "solve_dc"]

_GMIN_SEQUENCE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
_SOURCE_STEPS = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0)


@dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float


def newton_batch(build, X0: np.ndarray, active=None, *, max_iter: int = 100,
                 abstol: float = 1e-9, reltol: float = 1e-6, vlimit: float = 0.4):
    """Damped Newton iteration on ``B`` independent systems in lock-step.

    ``build(X)`` assembles every system at the stacked iterates ``X`` of
    shape ``(B, n)`` and returns ``(J, F)`` of shapes ``(B, n, n)`` and
    ``(B, n)``.  Only the systems listed in ``active`` (default: all)
    iterate; each leaves the loop on its own convergence, non-finite update
    or iteration cap, with exactly the arithmetic a one-system solve would
    use, so a system's result does not depend on its neighbours.
    Convergence is declared when the (un-damped) update is below
    ``abstol + reltol * |x|`` component-wise.

    Returns ``(X, converged, iterations, residual)``: the final iterates (a
    copy; rows outside ``active`` are untouched) and per-system arrays.
    """
    X = np.array(X0, dtype=np.float64, copy=True)
    B = len(X)
    converged = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=np.intp)
    residual = np.empty(B)
    residual[:] = np.inf
    live = np.arange(B) if active is None else np.asarray(active, dtype=np.intp)
    profile.add("newton_solves", len(live))
    # Hot-path counters accumulate locally and reach the table once.
    system_iterations = 0
    assemble_s = solve_s = 0.0
    try:
        for iteration in range(1, max_iter + 1):
            rows = live
            if not len(rows):
                break
            system_iterations += len(rows)
            t0 = perf_counter()
            J, F = build(X)
            t1 = perf_counter()
            assemble_s += t1 - t0
            whole = len(rows) == B
            if not whole:
                J, F = J[rows], F[rows]
            x = X if whole else X[rows]
            try:
                dX = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                dX = np.array([_solve_one(j, f) for j, f in zip(J, F)]).reshape(F.shape)
            solve_s += perf_counter() - t1
            size = np.abs(dX)
            step = np.maximum.reduce(size, axis=1, initial=0.0)  # NaN and inf propagate
            finite = np.isfinite(step)
            done = np.logical_and.reduce(size <= abstol + reltol * np.abs(x), axis=1)
            damp = step > vlimit
            if np.count_nonzero(damp):
                # Damping: scale each update so no component moves more than
                # vlimit.  Converged updates are applied undamped.
                damp &= finite & ~done
                dX[damp] = dX[damp] * (vlimit / step[damp])[:, None]
            x_next = x + dX
            leave = done | ~finite
            if iteration == max_iter:
                leave[:] = True
            if np.count_nonzero(leave):
                if np.count_nonzero(finite) < len(finite):
                    x_next[~finite] = x[~finite]
                converged[rows[done]] = True
                iterations[rows[leave]] = iteration
                residual[rows[leave]] = np.maximum.reduce(np.abs(F[leave]), axis=1,
                                                          initial=0.0)
                live = rows[~leave]
            if whole:
                X = x_next
            else:
                X[rows] = x_next
    finally:
        profile.add("newton_iterations", system_iterations)
        profile.add("assemble_s", assemble_s)
        profile.add("solve_s", solve_s)
    return X, converged, iterations, residual


def _solve_one(J: np.ndarray, f: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(J, -f)
    except np.linalg.LinAlgError:
        # Singular Jacobian: fall back to least squares with tiny ridge.
        ridge = J + 1e-12 * np.eye(len(f))
        dx, *_ = np.linalg.lstsq(ridge, -f, rcond=None)
        return dx


def newton_solve(build, x0: np.ndarray, *, max_iter: int = 100, abstol: float = 1e-9,
                 reltol: float = 1e-6, vlimit: float = 0.4) -> NewtonResult:
    """Damped Newton iteration on ``F(x) = 0`` for one system.

    ``build(x)`` must return an assembled :class:`System`; this is
    :func:`newton_batch` with ``B = 1``.
    """
    def build_one(X):
        sys = build(X[0])
        return sys.J[None], sys.f[None]

    X, converged, iterations, residual = newton_batch(
        build_one, np.asarray(x0, dtype=np.float64)[None], max_iter=max_iter,
        abstol=abstol, reltol=reltol, vlimit=vlimit)
    return NewtonResult(X[0], bool(converged[0]), int(iterations[0]), float(residual[0]))


def solve_dc(compiled, assemble, x0: np.ndarray | None = None, *,
             max_iter: int = 100, vlimit: float = 0.4) -> np.ndarray:
    """DC solve with gmin and source stepping fallbacks.

    ``assemble(x, gmin, source_scale)`` must return an assembled
    :class:`System` (the analyses provide this closure).  Raises
    :class:`ConvergenceError` when every strategy fails.
    """
    x = np.zeros(compiled.size) if x0 is None else np.array(x0, dtype=np.float64)

    def attempt(x_start, gmin, scale, max_iter_local=max_iter):
        return newton_solve(lambda xx: assemble(xx, gmin, scale), x_start,
                            max_iter=max_iter_local, vlimit=vlimit)

    # Plain Newton from the provided initial guess.
    result = attempt(x, 1e-12, 1.0)
    if result.converged:
        return result.x

    # Gmin stepping, warm-started along the sequence.
    x_path = np.array(x, copy=True)
    ok = True
    for gmin in _GMIN_SEQUENCE:
        result = attempt(x_path, gmin, 1.0)
        if not result.converged:
            ok = False
            break
        x_path = result.x
    if ok:
        return x_path

    # Source stepping with a mild gmin floor, then release the gmin.
    x_path = np.zeros(compiled.size)
    ok = True
    for scale in _SOURCE_STEPS:
        result = attempt(x_path, 1e-9, scale, max_iter_local=150)
        if not result.converged:
            ok = False
            break
        x_path = result.x
    if ok:
        for gmin in (1e-10, 1e-11, 1e-12):
            result = attempt(x_path, gmin, 1.0)
            if not result.converged:
                ok = False
                break
            x_path = result.x
        if ok:
            return x_path

    raise ConvergenceError(
        f"DC solve failed for {compiled.circuit.title!r} "
        f"(best residual {result.residual:.3e} after {result.iterations} iterations)")
