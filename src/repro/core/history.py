"""Optimization run records and the ask/tell optimizer core.

:class:`OptimizationHistory` stores each simulated design with its raw
performance row, FoM value and feasibility flag, and accounts simulator
time and model-building time separately — exactly the quantities reported
in Tables II/IV/V of the paper (success, sims-to-first-feasible, objective
statistics, modeling/simulation time).  It round-trips through plain JSON
(:meth:`OptimizationHistory.to_dict` / :meth:`OptimizationHistory.from_dict`),
which is what :meth:`repro.core.Study.save` checkpoints are made of.

:class:`Optimizer` is the *ask/tell* core shared by DNN-Opt and every
baseline: :meth:`Optimizer.ask` proposes the next designs to simulate and
:meth:`Optimizer.tell` feeds the measured rows back.  The optimizer never
drives its own evaluation loop — budget, dispatch, stop conditions,
callbacks and checkpointing belong to :class:`repro.core.Study`, and
:meth:`Optimizer.run` is a thin wrapper that builds a default
(non-pipelined) study.  Inverting control this way lets one driver overlap
proposal generation with in-flight evaluations (``Study(pipeline_depth=d)``),
checkpoint and resume runs, and compose optimizers into larger scenarios.
"""

from __future__ import annotations

import time
from abc import ABC
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from .blas import one_blas_thread
from .engine import EvalEngine
from .fom import fom_from_raw

__all__ = ["OptimizationHistory", "Optimizer"]


class OptimizationHistory:
    """Append-only record of an optimization run.

    A history may start with a *warm prefix*: ``n_warm`` leading rows that
    were transferred from a donor run (see :mod:`repro.core.warmstart`)
    rather than simulated by this run.  Archive views (:attr:`X`, :attr:`F`,
    :attr:`fom`, :attr:`best_index`, ...) span the full record — the
    knowledge the run conditions on — while the *cost* accounting
    (:attr:`n_evals`, :attr:`evals_to_first_feasible`) counts only the
    fresh rows this run actually paid simulations for.  Histories without a
    warm start have ``n_warm == 0`` and behave exactly as before.
    """

    def __init__(self, problem: Any, optimizer_name: str, seed: int) -> None:
        self.problem = problem
        self.optimizer_name = optimizer_name
        self.seed = seed
        self._X: list[np.ndarray] = []
        self._F: list[np.ndarray] = []
        self._fom: list[float] = []
        self._feasible: list[bool] = []
        self.modeling_time = 0.0
        self.simulation_time = 0.0
        #: leading rows transferred from a donor run (cost-free for this run)
        self.n_warm = 0
        #: engine cache/dedup counter deltas for the run that produced this
        #: history (attached by the Study driver; ``None`` until a run ends).
        self.engine_stats: dict | None = None

    # -- recording ---------------------------------------------------------
    def append(self, x: np.ndarray, f_raw: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64).ravel()
        f_raw = np.asarray(f_raw, dtype=np.float64).ravel()
        self._X.append(x)
        self._F.append(f_raw)
        self._fom.append(float(fom_from_raw(self.problem, f_raw[None, :])[0]))
        self._feasible.append(bool(self.problem.is_feasible(f_raw[None, :])[0]))

    # -- array views --------------------------------------------------------
    @property
    def X(self) -> np.ndarray:
        return np.asarray(self._X) if self._X else np.empty((0, self.problem.dim))

    @property
    def F(self) -> np.ndarray:
        cols = 1 + self.problem.num_constraints
        return np.asarray(self._F) if self._F else np.empty((0, cols))

    @property
    def fom(self) -> np.ndarray:
        return np.asarray(self._fom)

    @property
    def feasible(self) -> np.ndarray:
        return np.asarray(self._feasible, dtype=bool)

    @property
    def n_evals(self) -> int:
        """Simulations *this run* paid for (the warm prefix is free)."""
        return len(self._X) - self.n_warm

    @property
    def n_total(self) -> int:
        """All archive rows, warm prefix included."""
        return len(self._X)

    # -- summaries -----------------------------------------------------------
    @property
    def best_index(self) -> int:
        """Design with the lowest FoM (the paper's Algorithm 1 return)."""
        if not self._fom:
            raise ValueError("empty history")
        return int(np.argmin(self._fom))

    @property
    def best_x(self) -> np.ndarray:
        return self.X[self.best_index]

    @property
    def best_fom(self) -> float:
        return float(np.min(self._fom))

    @property
    def any_feasible(self) -> bool:
        return any(self._feasible)

    @property
    def evals_to_first_feasible(self) -> int | None:
        """1-based simulation count at the first feasible design (None if
        never).  Counts fresh rows only: a feasible donor row in the warm
        prefix cost this run nothing and is not a simulation spent."""
        for i, ok in enumerate(self._feasible[self.n_warm:]):
            if ok:
                return i + 1
        return None

    @property
    def best_feasible_index(self) -> int | None:
        """Feasible design with the lowest raw objective."""
        if not self.any_feasible:
            return None
        F = self.F
        objective = np.where(self.feasible, F[:, 0], np.inf)
        return int(np.argmin(objective))

    @property
    def best_feasible_objective(self) -> float | None:
        index = self.best_feasible_index
        return None if index is None else float(self.F[index, 0])

    def fom_curve(self) -> np.ndarray:
        """Running best (minimum) FoM after each simulation — the series
        plotted in Figures 3 and 4."""
        return np.minimum.accumulate(self.fom) if self._fom else np.empty(0)

    def summary(self) -> dict:
        out = {
            "optimizer": self.optimizer_name,
            "problem": self.problem.name,
            "seed": self.seed,
            "n_evals": self.n_evals,
            "feasible": self.any_feasible,
            "evals_to_first_feasible": self.evals_to_first_feasible,
            "best_fom": self.best_fom if self._fom else None,
            "best_feasible_objective": self.best_feasible_objective,
            "modeling_time_s": self.modeling_time,
            "simulation_time_s": self.simulation_time,
        }
        if self.n_warm:
            out["n_warm"] = self.n_warm
        if self.engine_stats is not None:
            out["engine"] = dict(self.engine_stats)
        stats = getattr(self.problem, "scenario_stats", None)
        if callable(stats):
            # Scenario wrappers (repro.scenarios) report corner fan-out and
            # adaptive-gating counters — corners simulated vs. skipped.
            out["scenarios"] = stats()
        return out

    # -- JSON round-trip -----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (the :meth:`Study.save` payload).

        Float arrays are emitted as nested lists; Python's ``repr``-based
        float serialization is shortest-round-trip, so a
        :meth:`from_dict` reload reproduces every value bit-exactly.  The
        ``fom`` list is informational (consumers like
        :meth:`repro.core.WarmStart.from_checkpoint` rank donor rows by
        it without a live problem instance); :meth:`from_dict` recomputes
        it from the raw rows instead of trusting the payload.
        """
        return {
            "optimizer_name": self.optimizer_name,
            "problem_name": self.problem.name,
            "seed": int(self.seed),
            "n_evals": self.n_evals,
            "n_warm": int(self.n_warm),
            "X": [list(map(float, x)) for x in self._X],
            "F": [list(map(float, f)) for f in self._F],
            "fom": [float(v) for v in self._fom],
            "modeling_time_s": float(self.modeling_time),
            "simulation_time_s": float(self.simulation_time),
            # ``{}`` means "ran with zero counters", ``None`` means "no
            # engine info was ever attached" — a truthiness check here used
            # to collapse the former into the latter on reload.
            "engine": dict(self.engine_stats) if self.engine_stats is not None
                      else None,
        }

    @classmethod
    def from_dict(cls, problem: Any, data: dict) -> "OptimizationHistory":
        """Rebuild a history against a live ``problem`` instance.

        FoM and feasibility are *recomputed* from the stored raw rows (they
        are pure functions of ``F``), so a round-trip is bit-identical.
        """
        history = cls(problem, data["optimizer_name"], int(data["seed"]))
        if len(data["X"]) != len(data["F"]):
            raise ValueError("history X/F row counts disagree")
        for x, f in zip(data["X"], data["F"]):
            history.append(np.asarray(x, dtype=np.float64),
                           np.asarray(f, dtype=np.float64))
        history.n_warm = int(data.get("n_warm", 0))
        history.modeling_time = float(data.get("modeling_time_s", 0.0))
        history.simulation_time = float(data.get("simulation_time_s", 0.0))
        if data.get("engine") is not None:
            history.engine_stats = dict(data["engine"])
        return history


class Optimizer(ABC):
    """Ask/tell core shared by DNN-Opt and every baseline.

    Native subclasses implement :meth:`_ask` (propose the next designs) and,
    when they carry internal state beyond the history, :meth:`_observe`
    (consume one told result).  The public protocol is::

        X = optimizer.ask()          # (k, d) proposals, physical units
        F = engine.evaluate_batch(problem, X)
        optimizer.tell(X, F)         # record + update internal state

    :meth:`run` is a compatibility shim that wraps the optimizer in a
    default :class:`repro.core.Study`; production code drives a Study
    directly (pipelining, callbacks, checkpoints).

    Two guarantees native optimizers uphold:

    * **Serial equivalence** — an ``ask()``/``tell()`` round-trip of one
      proposal at a time consumes the RNG stream exactly like the historic
      blocking loop, so seeded histories are bit-identical across the API
      generations (pinned by the seed-determinism suite).
    * **Delayed feedback** — ``ask()`` may be called again before the
      previous proposals are told (the Study's pipelined mode).  Proposals
      then condition on the stale archive; an optimizer that cannot propose
      yet (e.g. DE waiting for its initial population) returns an empty
      ``(0, d)`` array, which tells the driver to gather first.

    The optimizer has no evaluation entry point of its own: every
    simulation goes through the Study (or a caller's own
    ``engine.evaluate_batch``) and comes back through :meth:`tell`.
    """

    name: str = "optimizer"

    def __init__(self, problem: Any, budget: int, seed: int = 0, *,
                 stop_when_feasible: bool = False,
                 engine: EvalEngine | None = None) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.problem = problem
        self.budget = int(budget)
        self.seed = int(seed)
        self.stop_when_feasible = bool(stop_when_feasible)
        self.engine = engine if engine is not None else EvalEngine()
        self.rng = np.random.default_rng(seed)
        self.history = OptimizationHistory(problem, self.name, seed)
        self._n_proposed = 0  # designs handed out via ask() so far
        self._init_plan: np.ndarray | None = None  # see _initial_block
        self._init_served = 0

    # -- ask/tell protocol -------------------------------------------------
    def ask(self, k: int | None = None) -> np.ndarray:
        """Propose the next designs to simulate, shape ``(n, d)``.

        ``k`` is a *request*: ``None`` lets the optimizer pick its preferred
        count (its initial block, ``batch_size`` candidates, or one design);
        an integer asks for at most ``k``.  May return an empty ``(0, d)``
        array when proposals must wait for outstanding :meth:`tell` calls.
        """
        if k is not None and k < 1:
            raise ValueError("k must be >= 1")
        X = np.atleast_2d(np.asarray(self._ask(k), dtype=np.float64))
        if X.size == 0:
            return np.empty((0, self.problem.dim))
        if X.shape[1] != self.problem.dim:
            raise ValueError(f"{self.name}: ask() produced designs of dim "
                             f"{X.shape[1]}, problem has dim {self.problem.dim}")
        self._n_proposed += len(X)
        return X

    def tell(self, X: np.ndarray, F: np.ndarray) -> None:
        """Observe raw performance rows ``F`` for evaluated designs ``X``.

        Designs are canonicalized through ``problem.space.canonical`` (the
        sizing that was actually simulated, signed zeros normalized to match
        the engine's cache keys) before being recorded; each row is appended
        to the history and handed to :meth:`_observe` in order, so stateful
        optimizers see results exactly as the serial protocol would.
        """
        X = self.problem.space.canonical(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        F = np.atleast_2d(np.asarray(F, dtype=np.float64))
        if len(X) != len(F):
            raise ValueError(f"tell() got {len(X)} designs but {len(F)} rows")
        for x, f_raw in zip(X, F):
            self.history.append(x, f_raw)
            self._observe(x, f_raw)
        observe = getattr(self.problem, "scenario_observe", None)
        if observe is not None:
            # Scenario wrappers derive their adaptive-gating state from
            # *told* rows only, so it rebuilds identically wherever tell is
            # driven from — the run loop, a warm-start transfer, or a
            # checkpoint resume replaying the recorded prefix.
            observe(X, F)

    def _ask(self, k: int | None) -> np.ndarray:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _ask()")

    def _observe(self, x: np.ndarray, f_raw: np.ndarray) -> None:
        """Consume one told result (row already appended to the history)."""

    def _initial_block(self, k: int | None, n_init: int,
                       initial_designs: np.ndarray | None = None
                       ) -> np.ndarray | None:
        """Serve the space-filling start, or ``None`` once it is used up.

        The first call plans ``initial_designs`` (designer starting points,
        simulated first) followed by Latin-hypercube samples up to
        ``n_init`` designs in all.  Archive rows told *before* that call —
        a warm start's donor prefix (see :mod:`repro.core.warmstart`) —
        already condition the model, so they replace LHS samples one for
        one; a big enough donor skips the block entirely.  Later calls hand
        out the next ``k`` planned designs (all of them for ``k=None``).
        """
        if self._init_plan is None:
            seeded = (np.empty((0, self.problem.dim)) if initial_designs is None
                      else initial_designs[:self.budget])
            warm = self.history.n_total
            n_random = max(0, min(n_init - len(seeded) - warm,
                                  self.budget - len(seeded)))
            self._init_plan = np.vstack(
                [seeded, self.problem.space.sample_lhs(self.rng, n_random)])
        if self._init_served >= len(self._init_plan):
            return None
        stop = (len(self._init_plan) if k is None
                else min(len(self._init_plan), self._init_served + k))
        chunk = self._init_plan[self._init_served:stop]
        self._init_served = stop
        return chunk

    @contextmanager
    def timed_modeling(self) -> Iterator[None]:
        """Context manager adding elapsed wall-clock to modeling time.

        The block runs on one OpenBLAS thread (:func:`repro.core.blas.one_blas_thread`);
        the previous count is restored on exit, also when the block raises.
        """
        start = time.perf_counter()
        try:
            with one_blas_thread():
                yield
        finally:
            self.history.modeling_time += time.perf_counter() - start

    # -- drivers ------------------------------------------------------------
    def run(self) -> OptimizationHistory:
        """Execute the optimizer until the budget is exhausted, driven by a
        default non-pipelined :class:`repro.core.Study`."""
        from .study import Study
        return Study(self).run()
