"""Bridge between parameterized circuits and optimization problems.

A :class:`SizingCircuit` owns the design-variable list (the paper's Tables
I/III), the spec list (Eq. 9/10), a netlist builder, and the testbench
measurements.  :class:`CircuitSizingProblem` adapts it to the
:class:`~repro.problems.base.OptimizationProblem` interface every optimizer
consumes; simulator convergence failures become penalized evaluations
instead of crashes (real sizing loops hit non-convergent corners too).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..problems.base import (
    DesignSpace,
    EvaluationFailure,
    Objective,
    OptimizationProblem,
    Spec,
    Variable,
)
from ..spice.errors import SpiceError

__all__ = ["SizingCircuit", "CircuitSizingProblem"]


class SizingCircuit(ABC):
    """A parameterized circuit with testbench measurements.

    Subclasses define class attributes/methods:

    * :meth:`variables` — the design variables (name, bounds, kind, unit);
    * :meth:`objective` — the minimization target;
    * :meth:`specs` — the constraint list;
    * :meth:`measure` — run all testbenches for one sizing and return a
      ``{metric_name: value}`` mapping covering the objective and every spec.
    """

    name = "circuit"

    @abstractmethod
    def variables(self) -> list[Variable]:
        ...

    @abstractmethod
    def objective(self) -> Objective:
        ...

    @abstractmethod
    def specs(self) -> list[Spec]:
        ...

    @abstractmethod
    def measure(self, params: dict[str, float]) -> dict[str, float]:
        ...

    def simulate_batch(self, designs: list[dict[str, float]]) -> list[dict]:
        """Simulations shared by a batch of designs, as ``measure`` keywords.

        Returns one ``{keyword: result}`` mapping per design, which
        :class:`CircuitSizingProblem` passes to that design's ``measure``
        call.  A result may be the :class:`~repro.spice.errors.SpiceError`
        its simulation raised; ``measure`` then raises it.  The default
        shares nothing: every ``measure`` call runs its own testbenches.
        """
        return [{} for _ in designs]

    def nominal(self) -> dict[str, float]:
        """Designer starting point (mid-range by default)."""
        return {v.name: 0.5 * (v.lower + v.upper) for v in self.variables()}

    def space(self) -> DesignSpace:
        """The design space (built once and cached).

        ``space()`` sits inside every optimizer's rounding/caching path, so
        the variable list is materialized a single time per circuit object.
        Testbench netlists, by contrast, are rebuilt per evaluation — each
        ``build()`` returns a fresh :class:`~repro.spice.netlist.Circuit`
        whose compiled form (and its baked stamping plan) is cached on the
        circuit object itself, shared by every analysis in that evaluation.
        """
        cached = getattr(self, "_space_cache", None)
        if cached is None:
            cached = self._space_cache = DesignSpace(self.variables())
        return cached

    def problem(self) -> "CircuitSizingProblem":
        """The optimization problem for this circuit."""
        return CircuitSizingProblem(self)

    def parameter_table(self) -> list[tuple[str, str, float, float]]:
        """Rows (name, unit, lower, upper) — regenerates Tables I/III."""
        return [(v.name, v.unit, v.lower, v.upper) for v in self.variables()]


class CircuitSizingProblem(OptimizationProblem):
    """OptimizationProblem adapter around a :class:`SizingCircuit`."""

    def __init__(self, circuit: SizingCircuit):
        self.circuit = circuit
        super().__init__(circuit.space(), circuit.objective(), circuit.specs(),
                         name=circuit.name)
        self._metric_order = self.metric_names

    def _evaluate(self, x: np.ndarray, simulated: dict | None = None) -> np.ndarray:
        params = self.space.as_dict(x)
        try:
            measured = self.circuit.measure(params, **(simulated or {}))
        except SpiceError as exc:
            raise EvaluationFailure(str(exc)) from exc
        missing = [m for m in self._metric_order if m not in measured]
        if missing:
            raise KeyError(f"{self.circuit.name}: measure() missing metrics {missing}")
        return np.array([measured[m] for m in self._metric_order])

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Rows for a batch, with the circuit's shared simulations run once.

        ``SizingCircuit.simulate_batch`` runs the batch's shared analyses
        (the StrongARM latch's transients, in lock-step); ``measure`` is
        then called once per design on its share, with :meth:`evaluate`'s
        rounding, failure-row and shape handling per design.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        designs = [self.space.round(x) for x in X]
        shared = self.circuit.simulate_batch([self.space.as_dict(x) for x in designs])
        return np.vstack([self._checked_row(self._evaluate, x, simulated)
                          for x, simulated in zip(designs, shared)])

    def measure_dict(self, x: np.ndarray) -> dict[str, float]:
        """Convenience: raw metric mapping for one design vector."""
        row = self.evaluate(x)
        return dict(zip(self._metric_order, row))
