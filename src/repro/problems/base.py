"""Constrained black-box problem abstraction (Eq. 1 of the paper).

An :class:`OptimizationProblem` couples a :class:`DesignSpace` (the vector
``x`` of Eq. 1, possibly mixing continuous and integer variables) with one
minimization objective and ``m`` inequality constraints expressed as
:class:`Spec` records.  Raw performance values keep their physical units;
:meth:`OptimizationProblem.normalize` maps them to the standard
``fi(x) <= 0`` form with O(1) scaling, which is what the FoM (Eq. 4), the
critic's training targets, and every optimizer in this package consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Variable", "DesignSpace", "Spec", "Objective", "OptimizationProblem",
           "EvaluationFailure"]


@dataclass(frozen=True)
class Variable:
    """One design variable with box bounds."""

    name: str
    lower: float
    upper: float
    kind: str = "continuous"  # or "integer"
    unit: str = ""

    def __post_init__(self):
        if self.kind not in ("continuous", "integer"):
            raise ValueError(f"{self.name}: kind must be continuous|integer")
        if not self.lower < self.upper:
            raise ValueError(f"{self.name}: need lower < upper, got [{self.lower}, {self.upper}]")


class DesignSpace:
    """Box-bounded design space with normalization and sampling helpers."""

    def __init__(self, variables: list[Variable]):
        if not variables:
            raise ValueError("design space needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.variables = list(variables)
        self.lower = np.array([v.lower for v in variables], dtype=np.float64)
        self.upper = np.array([v.upper for v in variables], dtype=np.float64)
        self.names = names
        self._integer_mask = np.array([v.kind == "integer" for v in variables])

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def integer_mask(self) -> np.ndarray:
        return self._integer_mask.copy()

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Uniform random designs, integer dims rounded; shape ``(n, d)``."""
        points = rng.uniform(self.lower, self.upper, size=(n, self.dim))
        return self.round(points)

    def sample_lhs(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Latin-hypercube samples (better space filling for initial sets)."""
        u = (rng.permuted(np.tile(np.arange(n), (self.dim, 1)), axis=1).T
             + rng.uniform(size=(n, self.dim))) / n
        return self.round(self.denormalize(u))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def round(self, x: np.ndarray) -> np.ndarray:
        """Round integer dimensions to the nearest feasible integer."""
        x = np.array(x, dtype=np.float64, copy=True)
        if self._integer_mask.any():
            x[..., self._integer_mask] = np.round(x[..., self._integer_mask])
        return self.clip(x)

    def canonical(self, x: np.ndarray) -> np.ndarray:
        """The *canonical* representation of the design(s) that would be
        simulated: :meth:`round` plus signed-zero normalization.

        This is the one shared helper every byte-level identity in the
        package keys on — the engine's evaluation/dedup cache, the disk
        cache tier, and the Study replay store.  ``np.round`` maps values in
        ``(-0.5, 0.0)`` on an integer dimension (see ``integer_mask``) to
        ``-0.0``, whose byte pattern differs from ``+0.0`` even though it is
        the same integer design; hashing raw bytes would then alias one
        design to two cache keys (and, with a persistent cache, two disk
        entries).  Adding ``0.0`` collapses every ``-0.0`` to ``+0.0`` and
        leaves all other values bit-untouched.
        """
        return self.round(x) + 0.0

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Map physical values to the unit cube."""
        return (np.asarray(x, dtype=np.float64) - self.lower) / self.span

    def denormalize(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube coordinates back to physical values."""
        return self.lower + np.asarray(u, dtype=np.float64) * self.span

    def as_dict(self, x: np.ndarray) -> dict[str, float]:
        """One design vector as a name->value mapping."""
        x = np.asarray(x).ravel()
        return {name: float(value) for name, value in zip(self.names, x)}

    def __repr__(self) -> str:
        return f"DesignSpace(dim={self.dim})"


@dataclass(frozen=True)
class Spec:
    """One inequality constraint on a named performance metric.

    ``kind='min'`` requires ``value >= bound`` (e.g. gain > 60 dB);
    ``kind='max'`` requires ``value <= bound`` (e.g. power < 1 mW).
    ``weight`` is the ``w_i`` of Eq. 4.
    """

    name: str
    kind: str
    bound: float
    weight: float = 1.0
    unit: str = ""

    def __post_init__(self):
        if self.kind not in ("min", "max"):
            raise ValueError(f"{self.name}: kind must be 'min' or 'max'")
        if self.weight <= 0:
            raise ValueError(f"{self.name}: weight must be positive")

    @property
    def scale(self) -> float:
        # Zero bounds (e.g. "g(x) <= 0") normalize by 1 — dividing by |bound|
        # would explode the violation measure.
        magnitude = abs(self.bound)
        return magnitude if magnitude > 1e-12 else 1.0

    def violation(self, value: float | np.ndarray) -> float | np.ndarray:
        """Normalized constraint value ``fi``; satisfied iff ``fi <= 0``."""
        if self.kind == "min":
            return (self.bound - value) / self.scale
        return (value - self.bound) / self.scale

    def satisfied(self, value: float | np.ndarray, tol: float = 1e-9):
        return self.violation(value) <= tol

    def describe(self) -> str:
        op = ">=" if self.kind == "min" else "<="
        return f"{self.name} {op} {self.bound:g} {self.unit}".rstrip()


@dataclass(frozen=True)
class Objective:
    """The minimization target ``f0`` with its FoM weight ``w0`` (Eq. 4).

    ``scale`` is a reference magnitude used to normalize the raw value so it
    is comparable with the clipped constraint terms.
    """

    name: str
    scale: float = 1.0
    weight: float = 1.0
    unit: str = ""

    def __post_init__(self):
        if self.scale <= 0 or self.weight <= 0:
            raise ValueError(f"{self.name}: scale and weight must be positive")

    def normalized(self, value: float | np.ndarray):
        return value / self.scale


class EvaluationFailure(RuntimeError):
    """Raised by problems when a simulation fails (non-convergence etc.)."""


class OptimizationProblem:
    """Base class for constrained sizing problems.

    Subclasses implement :meth:`_evaluate` returning the raw performance
    vector ``[f0, f1, ..., fm]`` for a single design.  Evaluation failures
    (e.g. SPICE non-convergence on a pathological sizing) may raise
    :class:`EvaluationFailure`; callers receive :meth:`failure_vector`
    instead, a heavily penalized row, so optimizers never crash mid-run.
    """

    def __init__(self, space: DesignSpace, objective: Objective, specs: list[Spec],
                 name: str = ""):
        self.space = space
        self.objective = objective
        self.specs = list(specs)
        self.name = name or type(self).__name__

    # -- interface -------------------------------------------------------
    def _evaluate(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    # -- public API -------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def num_constraints(self) -> int:
        return len(self.specs)

    @property
    def metric_names(self) -> list[str]:
        return [self.objective.name] + [s.name for s in self.specs]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Raw performance row ``[f0, f1..fm]`` for one design (never raises)."""
        x = self.space.round(np.asarray(x, dtype=np.float64).ravel())
        return self._checked_row(self._evaluate, x)

    def _checked_row(self, evaluate, x: np.ndarray, *args) -> np.ndarray:
        """``evaluate(x, *args)`` as a validated row, or the failure row."""
        try:
            row = np.asarray(evaluate(x, *args), dtype=np.float64).ravel()
        except EvaluationFailure:
            return self.failure_vector()
        if row.shape != (1 + self.num_constraints,):
            raise ValueError(
                f"{self.name}: _evaluate returned shape {row.shape}, "
                f"expected ({1 + self.num_constraints},)")
        if not np.all(np.isfinite(row)):
            return self.failure_vector()
        return row

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Rows for a batch of designs, each exactly as :meth:`evaluate` gives it.

        Every engine backend dispatches through this method, so a problem
        that can simulate several designs together overrides it; the rows
        must not depend on how designs are grouped into batches.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.vstack([self.evaluate(x) for x in X])

    def failure_vector(self) -> np.ndarray:
        """Penalty row used when simulation fails: huge objective, all
        constraints maximally violated (their clipped FoM terms saturate)."""
        row = np.empty(1 + self.num_constraints)
        row[0] = 10.0 * self.objective.scale
        for i, spec in enumerate(self.specs):
            # Choose a raw value violating the spec by 10 scales.
            if spec.kind == "min":
                row[1 + i] = spec.bound - 10.0 * spec.scale
            else:
                row[1 + i] = spec.bound + 10.0 * spec.scale
        return row

    def normalize(self, F: np.ndarray) -> np.ndarray:
        """Map raw rows ``[f0, fi...]`` to ``[f0/scale, violation_i...]``.

        A 1-D input row returns a 1-D result; 2-D stays 2-D.
        """
        F = np.asarray(F, dtype=np.float64)
        single_row = F.ndim == 1
        F = np.atleast_2d(F)
        out = np.empty_like(F)
        out[:, 0] = self.objective.normalized(F[:, 0])
        for i, spec in enumerate(self.specs):
            out[:, 1 + i] = spec.violation(F[:, 1 + i])
        return out[0] if single_row else out

    def constraint_weights(self) -> np.ndarray:
        return np.array([s.weight for s in self.specs])

    def is_feasible(self, F_raw: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Feasibility mask for raw performance rows."""
        F_raw = np.atleast_2d(F_raw)
        if self.num_constraints == 0:
            return np.ones(len(F_raw), dtype=bool)
        viol = self.normalize(F_raw)[:, 1:]
        return np.all(viol <= tol, axis=1)

    def describe(self) -> str:
        lines = [f"problem: {self.name}",
                 f"  minimize {self.objective.name} [{self.objective.unit}]",
                 f"  {self.dim} variables, {self.num_constraints} constraints"]
        lines.extend(f"    s.t. {spec.describe()}" for spec in self.specs)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(d={self.dim}, m={self.num_constraints},"
                f" objective={self.objective.name!r})")
