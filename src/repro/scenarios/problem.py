"""Scenario-wrapped optimization problems: corner fan-out and Monte Carlo.

:class:`ScenarioProblem` wraps any :class:`~repro.problems.base
.OptimizationProblem` with a list of *variant problems* (per-corner or
per-mismatch-sample views of the base) and aggregates their raw rows into
one robust row per design.  The wrapper presents the same design space,
objective and specs as the base problem, so every optimizer, history and
FoM computation works unchanged — only the meaning of a row shifts from
"nominal performance" to "worst-case (or quantile) performance".

Evaluation rides the engine seams rather than running its own loop: the
:class:`~repro.core.engine.EvalEngine` recognizes the ``scenario_submit``
hook in both entry points and delegates here; this module then submits
each variant as an ordinary engine batch, so per-corner evaluations share
the cache/dedup/disk tiers (under the *variant's own* content fingerprint
— corners never alias) and parallelize across whatever backend or fleet
the engine is configured with.  Aggregation order is fixed, so histories
are bit-identical across the serial, process and fleet backends.

Adaptive gating evaluates the cheap first variant (nominal) for every
design and fans the remaining variants out only when the nominal FoM is
within ``gate_margin`` of the best aggregated FoM observed so far.  Gate
state is derived exclusively from *told* rows (via the ``scenario_observe``
hook :meth:`repro.core.history.Optimizer.tell` calls), which makes gating
decisions deterministic across backends and exactly replayable from a
:class:`~repro.core.study.Study` checkpoint resume.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Sequence

import numpy as np

from ..core.fom import fom_from_raw
from ..problems.base import OptimizationProblem
from ..spice.netlist import circuit_transform
from .corners import Corner, ScenarioSet
from .transform import MismatchSpec, corner_transform, mismatch_transform

__all__ = ["ScenarioProblem", "CornerProblem", "MonteCarloProblem",
           "CornerVariant", "MismatchVariant"]


class CornerVariant(OptimizationProblem):
    """One corner's view of a base problem.

    Evaluation applies the corner's netlist transform around the base
    problem's own ``evaluate``/``evaluate_batch`` (rounding, failure
    handling and shape validation included), so a variant's engine batch
    simulates together just as the base problem's would.  The variant
    shares the base problem's space object, so canonical design bytes —
    and therefore engine cache keys *within* a variant — line up with the
    base; the pickle payload adds the corner, so the engine content
    fingerprint differs *between* variants and corners never alias in the
    cache/dedup/disk tiers.
    """

    def __init__(self, base: Any, corner: Corner) -> None:
        super().__init__(base.space, base.objective, list(base.specs),
                         name=f"{base.name}@{corner.name}")
        self.base = base
        self.corner = corner

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        with circuit_transform(corner_transform(self.corner)):
            return np.asarray(self.base.evaluate(x), dtype=np.float64)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        with circuit_transform(corner_transform(self.corner)):
            return np.asarray(self.base.evaluate_batch(X), dtype=np.float64)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError("CornerVariant overrides evaluate()")


class MismatchVariant(OptimizationProblem):
    """One seeded mismatch sample's view of a base problem."""

    def __init__(self, base: Any, seed: int, sample: int,
                 spec: MismatchSpec) -> None:
        super().__init__(base.space, base.objective, list(base.specs),
                         name=f"{base.name}@mc{sample}")
        self.base = base
        self.seed = int(seed)
        self.sample = int(sample)
        self.mismatch = spec

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        transform = mismatch_transform(self.seed, self.sample, self.mismatch)
        with circuit_transform(transform):
            return np.asarray(self.base.evaluate(x), dtype=np.float64)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        transform = mismatch_transform(self.seed, self.sample, self.mismatch)
        with circuit_transform(transform):
            return np.asarray(self.base.evaluate_batch(X), dtype=np.float64)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError("MismatchVariant overrides evaluate()")


class _Runtime:
    """Per-instance mutable scenario state.

    Never pickled (see ``ScenarioProblem.__getstate__``): the memo and gate
    state are rebuilt from told rows by ``scenario_observe``, which is how a
    checkpoint resume replays gating decisions exactly.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        # -- everything below is guarded by: lock --
        #: canonical design bytes -> aggregated row, for every told design
        self.memo: dict[bytes, np.ndarray] = {}
        self.n_observed = 0        # told rows (gate warmup counter)
        self.best_fom = math.inf   # best aggregated FoM among told rows
        self.n_designs = 0         # designs decided by the fan-out machinery
        self.n_fanned = 0          # designs fanned to the full variant set
        self.n_gated = 0           # designs stopped at the nominal variant
        self.corner_sims = 0       # non-nominal variant evaluations requested
        self.corner_sims_saved = 0  # non-nominal evaluations gating skipped
        self.n_memo_hits = 0       # designs answered from the told-row memo
        self.samples_total = 0     # variant rows inspected for feasibility
        self.samples_feasible = 0  # ... of which were feasible


class _ScenarioHandle:
    """In-flight record of one scenario batch (duck-typed eval handle).

    ``EvalEngine.gather`` recognizes non-:class:`EvalHandle` handles and
    calls :meth:`gather` back with itself, so this object can drive the
    second fan-out wave (full variant sets for designs that cleared the
    gate) through the same engine the nominal wave used.
    """

    def __init__(self, problem: "ScenarioProblem", keys: list[bytes],
                 resolved: dict[bytes, np.ndarray], todo_keys: list[bytes],
                 todo_X: np.ndarray, nominal_handle: Any) -> None:
        self.problem = problem
        self.keys = keys
        self.resolved = resolved
        self.todo_keys = todo_keys
        self.todo_X = todo_X
        self.nominal_handle = nominal_handle

    def gather(self, engine: Any) -> np.ndarray:
        problem = self.problem
        rows = dict(self.resolved)
        if self.todo_keys:
            F0 = np.atleast_2d(engine.gather(self.nominal_handle))
            fan_mask = problem._gate_decide(F0)
            X_fan = self.todo_X[fan_mask]
            tail = problem.variants[1:]
            F_tail: list[np.ndarray] = []
            if len(X_fan) and tail:
                # One engine batch per non-nominal variant: corners of one
                # design spread across workers/threads, and each batch keys
                # the cache under its variant's own content fingerprint.
                handles = [engine.submit(variant, X_fan) for variant in tail]
                F_tail = [np.atleast_2d(engine.gather(h)) for h in handles]
            fan_pos = 0
            n_feasible = 0
            n_rows = 0
            for j, key in enumerate(self.todo_keys):
                if fan_mask[j] and tail:
                    stack = np.vstack(
                        [F0[j]] + [F[fan_pos] for F in F_tail])
                    rows[key] = problem._aggregate(stack)
                    n_feasible += int(problem.is_feasible(stack).sum())
                    n_rows += len(stack)
                    fan_pos += 1
                else:
                    rows[key] = F0[j]
            problem._record_gather(fan_mask, n_feasible, n_rows)
        if not self.keys:
            return np.empty((0, 1 + problem.num_constraints))
        return np.vstack([rows[key] for key in self.keys])


class ScenarioProblem(OptimizationProblem):
    """Base wrapper fanning each design out to K variant evaluations.

    Parameters
    ----------
    problem:
        The base :class:`OptimizationProblem` (shared space/objective/specs).
    variants:
        Ordered variant problems; index 0 is the cheap screening variant
        evaluated for every design (usually the base problem itself).
    aggregate:
        ``"worst"`` (default) or a quantile ``q`` in ``(0, 1]``.  Each
        column is aggregated *in its oriented direction*: the objective and
        ``max``-specs take the upper ``q``-quantile, ``min``-specs the lower
        — so ``q = 1.0`` is exact worst-case and ``q = 0.9`` means "each
        metric holds at its 90th-percentile-bad variant" (a yield-style
        row).  Aggregated rows stay structurally valid performance rows.
    gate_margin:
        ``None`` disables adaptive gating (every design fans out to all
        variants).  A float enables it: after ``gate_warmup`` told designs,
        a design only fans out when its *nominal* FoM is within
        ``gate_margin`` of the best aggregated FoM told so far; gated
        designs record their nominal row.
    gate_warmup:
        Told designs before gating starts making decisions (default 8).
    """

    def __init__(self, problem: Any, variants: Sequence[Any], *,
                 aggregate: float | str = "worst",
                 gate_margin: float | None = None,
                 gate_warmup: int = 8,
                 name: str = "") -> None:
        if hasattr(problem, "scenario_submit"):
            raise ValueError("cannot nest scenario problems")
        if not variants:
            raise ValueError("need at least one variant")
        if aggregate != "worst":
            q = float(aggregate)
            if not 0.0 < q <= 1.0:
                raise ValueError(
                    f"aggregate must be 'worst' or a quantile in (0, 1], "
                    f"got {aggregate!r}")
        if gate_margin is not None and gate_margin < 0:
            raise ValueError("gate_margin must be >= 0")
        if gate_warmup < 0:
            raise ValueError("gate_warmup must be >= 0")
        super().__init__(problem.space, problem.objective,
                         list(problem.specs),
                         name=name or f"{problem.name}[x{len(variants)}]")
        self.problem = problem
        self.variants = list(variants)
        self.aggregate = aggregate
        self.gate_margin = gate_margin
        self.gate_warmup = int(gate_warmup)
        self._rt = _Runtime()

    # -- pickling ----------------------------------------------------------
    # The runtime (lock, memo, gate state) is stripped so the wrapper's
    # pickle bytes — its engine/checkpoint content fingerprint — stay
    # stable while a run mutates gate state, and identical across
    # processes.  A fresh runtime is rebuilt by scenario_observe re-tells.
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_rt"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._rt = _Runtime()

    # -- direct (out-of-loop) evaluation -----------------------------------
    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Aggregated row for one design, all variants, no engine/gating."""
        rows = np.vstack([variant.evaluate(x) for variant in self.variants])
        return self._aggregate(rows)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError("ScenarioProblem overrides evaluate()")

    # -- engine seam hooks --------------------------------------------------
    def scenario_submit(self, engine: Any, X: np.ndarray) -> _ScenarioHandle:
        """Start the nominal wave for a batch; returns a duck-typed handle.

        Designs already *told* this run are answered from the memo (their
        aggregated row is final — re-deciding the gate could change it);
        everything else is submitted to the first variant now.  The full
        fan-out for designs that clear the gate happens at gather time,
        when the nominal rows exist.
        """
        X = self.space.canonical(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        keys = [np.ascontiguousarray(x).tobytes() for x in X]
        resolved: dict[bytes, np.ndarray] = {}
        todo_keys: list[bytes] = []
        todo_rows: list[np.ndarray] = []
        seen: set[bytes] = set()
        with self._rt.lock:
            for key, x in zip(keys, X):
                if key in seen:
                    continue
                seen.add(key)
                memo_row = self._rt.memo.get(key)
                if memo_row is not None:
                    resolved[key] = memo_row
                    self._rt.n_memo_hits += 1
                else:
                    todo_keys.append(key)
                    todo_rows.append(x)
        nominal_handle = None
        if todo_rows:
            nominal_handle = engine.submit(self.variants[0],
                                           np.asarray(todo_rows))
        return _ScenarioHandle(self, keys, resolved, todo_keys,
                               np.asarray(todo_rows), nominal_handle)

    def scenario_observe(self, X: np.ndarray, F: np.ndarray) -> None:
        """Consume told rows (:meth:`Optimizer.tell` calls this).

        Updates the memo and the gate state.  Because *only* told rows feed
        the gate, decisions depend exclusively on the deterministic tell
        order — identical across backends, and rebuilt exactly when a
        checkpoint resume re-tells the recorded prefix.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        F = np.atleast_2d(np.asarray(F, dtype=np.float64))
        fom = fom_from_raw(self, F)
        with self._rt.lock:
            for x, row, value in zip(X, F, fom):
                self._rt.memo[np.ascontiguousarray(x).tobytes()] = \
                    np.array(row, dtype=np.float64)
                self._rt.n_observed += 1
                if value < self._rt.best_fom:
                    self._rt.best_fom = float(value)

    def scenario_stats(self) -> dict[str, Any]:
        """Gating/fan-out counters (``history.summary()["scenarios"]``)."""
        with self._rt.lock:
            stats: dict[str, Any] = {
                "corners": len(self.variants),
                "aggregate": self.aggregate,
                "designs": self._rt.n_designs,
                "fanned_out": self._rt.n_fanned,
                "gated": self._rt.n_gated,
                "corner_sims": self._rt.corner_sims,
                "corner_sims_saved": self._rt.corner_sims_saved,
                "memo_hits": self._rt.n_memo_hits,
            }
            if self._rt.samples_total:
                stats["sample_yield"] = round(
                    self._rt.samples_feasible / self._rt.samples_total, 4)
        if self.gate_margin is not None:
            stats["gate_margin"] = self.gate_margin
            stats["gate_warmup"] = self.gate_warmup
        return stats

    # -- internals ----------------------------------------------------------
    def _gate_decide(self, F0: np.ndarray) -> np.ndarray:
        """Fan-out mask for a wave of nominal rows (True = full set)."""
        n = len(F0)
        if self.gate_margin is None or len(self.variants) == 1:
            return np.ones(n, dtype=bool)
        fom0 = fom_from_raw(self, F0)
        with self._rt.lock:
            if self._rt.n_observed < self.gate_warmup:
                return np.ones(n, dtype=bool)
            threshold = self._rt.best_fom + self.gate_margin
        return np.asarray(fom0 <= threshold, dtype=bool)

    def _aggregate(self, rows: np.ndarray) -> np.ndarray:
        """Oriented per-column aggregate of one design's variant rows."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        q = 1.0 if self.aggregate == "worst" else float(self.aggregate)
        out = np.empty(rows.shape[1])
        out[0] = np.quantile(rows[:, 0], q)  # objective: larger is worse
        for i, spec in enumerate(self.specs):
            col = rows[:, 1 + i]
            # Worse for a min-spec is *small*, for a max-spec *large*.
            out[1 + i] = np.quantile(col, 1.0 - q if spec.kind == "min"
                                     else q)
        return out

    def _record_gather(self, fan_mask: np.ndarray, n_feasible: int,
                       n_rows: int) -> None:
        tail = max(0, len(self.variants) - 1)
        n_fanned = int(fan_mask.sum())
        n_gated = len(fan_mask) - n_fanned
        with self._rt.lock:
            self._rt.n_designs += len(fan_mask)
            self._rt.n_fanned += n_fanned
            self._rt.n_gated += n_gated
            self._rt.corner_sims += n_fanned * tail
            self._rt.corner_sims_saved += n_gated * tail
            self._rt.samples_feasible += n_feasible
            self._rt.samples_total += n_rows

    # -- audit helpers -------------------------------------------------------
    def variant_rows(self, engine: Any, x: np.ndarray) -> np.ndarray:
        """Per-variant raw rows for one design, shape ``(K, 1+m)``."""
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        handles = [engine.submit(variant, X) for variant in self.variants]
        return np.vstack([engine.gather(handle) for handle in handles])

    def feasible_fraction(self, engine: Any, x: np.ndarray) -> float:
        """Fraction of variants where ``x`` meets every spec (yield proxy)."""
        rows = self.variant_rows(engine, x)
        return float(np.mean(self.is_feasible(rows)))


class CornerProblem(ScenarioProblem):
    """Worst-case-over-PVT-corners view of a base problem.

    The first corner of ``scenarios`` is the screening variant; when it is
    the identity corner (``Corner.is_nominal``) the *base problem itself*
    serves as variant 0, so nominal rows share the engine cache with plain
    nominal runs of the same problem.
    """

    def __init__(self, problem: Any, scenarios: ScenarioSet | Sequence[Corner],
                 *, aggregate: float | str = "worst",
                 gate_margin: float | None = None,
                 gate_warmup: int = 8) -> None:
        if not isinstance(scenarios, ScenarioSet):
            scenarios = ScenarioSet(tuple(scenarios))
        variants: list[Any] = [
            problem if corner.is_nominal else CornerVariant(problem, corner)
            for corner in scenarios]
        super().__init__(problem, variants, aggregate=aggregate,
                         gate_margin=gate_margin, gate_warmup=gate_warmup,
                         name=f"{problem.name}[corners:{len(scenarios)}]")
        self.scenarios = scenarios


class MonteCarloProblem(ScenarioProblem):
    """Seeded per-device mismatch Monte Carlo with a yield-style FoM.

    Variant 0 is the base problem (the mean-device screening point);
    variants 1..n are Pelgrom mismatch draws keyed by ``(seed, sample,
    device name)`` — common random numbers across designs, reproducible
    across processes.  The default ``aggregate=0.9`` asks every metric to
    hold at its 90th-percentile-bad sample (a ~90%-yield row);
    ``aggregate="worst"`` is worst-sample.  ``scenario_stats()`` also
    reports ``sample_yield``, the observed fraction of feasible variant
    rows among fanned-out designs.
    """

    def __init__(self, problem: Any, n_samples: int = 16, *, seed: int = 0,
                 aggregate: float | str = 0.9,
                 avt: float | None = None, akp: float | None = None,
                 gate_margin: float | None = None,
                 gate_warmup: int = 8) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        kwargs: dict[str, float] = {}
        if avt is not None:
            kwargs["avt"] = avt
        if akp is not None:
            kwargs["akp"] = akp
        spec = MismatchSpec(**kwargs)
        variants: list[Any] = [problem] + [
            MismatchVariant(problem, seed, sample, spec)
            for sample in range(1, n_samples + 1)]
        super().__init__(problem, variants, aggregate=aggregate,
                         gate_margin=gate_margin, gate_warmup=gate_warmup,
                         name=f"{problem.name}[mc:{n_samples}]")
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self.mismatch = spec
