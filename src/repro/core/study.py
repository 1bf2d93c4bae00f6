"""`Study` — the driver that owns an optimization run.

The ask/tell inversion (PR 4) moves everything that is *not* proposal
generation out of the optimizers and into one place:

* **budget** — proposals are truncated to the remaining budget before any
  simulation happens, so no optimizer can overshoot (optimizers have no
  evaluation path of their own);
* **dispatch** — every batch goes through the optimizer's
  :class:`~repro.core.engine.EvalEngine`; with ``pipeline_depth >= 2`` the
  study submits the next ``ask`` batch via the engine's non-blocking
  :meth:`~repro.core.engine.EvalEngine.submit` /
  :meth:`~repro.core.engine.EvalEngine.gather` pair while the previous
  batch is still in flight, overlapping actor/critic retraining (or GP
  fits) with simulator latency on the process/remote backends;
* **stop conditions** — ``stop_when_feasible`` truncation (bit-compatible
  with the historic serial protocol: rows after the first feasible design
  are discarded), a user ``stop_when(history)`` predicate, and cooperative
  :meth:`request_stop`;
* **callbacks** — each ``callback(study)`` fires after every told batch;
* **checkpoint/resume** — :meth:`save` writes a plain-JSON snapshot
  (a :meth:`~repro.core.history.OptimizationHistory.to_dict` payload plus
  run metadata and the design-space description), which
  ``checkpoint_path=`` does every ``checkpoint_every`` told batches and on
  exit from :meth:`run`; :meth:`load` arms a
  fresh, identically-constructed optimizer with a *replay store*, so the
  resumed run re-derives its internal state (RNG stream included) by
  re-asking and answering the recorded prefix from the store instead of
  the simulator, then continues with real evaluations — histories are
  bit-identical to an uninterrupted run on a deterministic problem;
* **warm start** — ``Study(optimizer, warm_start=WarmStart.from_checkpoint(
  path))`` transfers a donor run's archive in before the first ask (see
  :mod:`repro.core.warmstart`): told for free on the same problem, mapped
  into starting designs across problems.

Determinism contract: with ``pipeline_depth=1`` a study drives each
optimizer exactly like the historic blocking loop (same RNG consumption,
same evaluation order), which is what keeps the seed-determinism and
engine-equivalence suites green across the API redesign.  With
``pipeline_depth >= d`` proposals may condition on an archive that is up to
``d-1`` batches stale (the standard delayed-feedback setting); recorded
histories still replay to the same evaluations — every row is the
deterministic simulator answer for its design.
"""

from __future__ import annotations

import json
import os
from collections import deque
from time import perf_counter
from typing import Callable

import numpy as np

from .engine import EvalEngine

__all__ = ["Study", "engine_counter_snapshot", "attach_engine_stats"]

#: engine counters surfaced per run in ``OptimizationHistory.summary()``
_ENGINE_COUNTERS = ("n_cache_hits", "n_disk_hits", "n_sim_calls", "n_dedup",
                    "n_pool_builds", "worker_sim_calls")

CHECKPOINT_FORMAT = 1


def engine_counter_snapshot(engine) -> dict[str, int]:
    """Current cache/dedup counter values of an engine (0 for absent ones).

    Real engines are read through :meth:`EvalEngine.counters_snapshot`, so
    every counter comes from the same instant under the engine's state
    lock; duck-typed stand-ins without that method fall back to plain
    attribute reads.
    """
    snapshot = getattr(engine, "counters_snapshot", None)
    if callable(snapshot):
        values = snapshot()
        return {name: int(values.get(name, 0)) for name in _ENGINE_COUNTERS}
    return {name: int(getattr(engine, name, 0)) for name in _ENGINE_COUNTERS}


def attach_engine_stats(history, engine, before: dict[str, int]) -> None:
    """Record this run's engine counter deltas on the history.

    ``cache_hits + dedups`` answered designs without a simulation;
    ``hit_rate`` is the fraction of requested designs that never reached the
    simulator — the per-trial number study reports surface on every backend.
    """
    after = engine_counter_snapshot(engine)
    delta = {name: after[name] - before[name] for name in _ENGINE_COUNTERS}
    requested = delta["n_cache_hits"] + delta["n_dedup"] + delta["n_sim_calls"]
    history.engine_stats = {
        "backend": getattr(engine, "backend", "?"),
        "cache_hits": delta["n_cache_hits"],
        "disk_hits": delta["n_disk_hits"],
        "misses": delta["n_sim_calls"],
        "dedups": delta["n_dedup"],
        "n_pool_builds": delta["n_pool_builds"],
        "worker_sim_calls": delta["worker_sim_calls"],
        "hit_rate": (round((delta["n_cache_hits"] + delta["n_dedup"]) / requested, 4)
                     if requested else 0.0),
    }


class Study:
    """Owns one optimization run over an ask/tell optimizer.

    Parameters
    ----------
    optimizer:
        A native ask/tell :class:`~repro.core.history.Optimizer` (budget,
        seed and ``stop_when_feasible`` are read from it).
    engine:
        Optional :class:`~repro.core.engine.EvalEngine`; when given it
        replaces ``optimizer.engine`` for this run.  The study never closes
        the engine — the caller owns its lifecycle.
    pipeline_depth:
        Maximum number of batches in flight.  ``1`` (default) is the
        barrier mode: ask, evaluate, tell, repeat — bit-identical to the
        historic blocking loop.  ``d >= 2`` submits up to ``d`` batches
        non-blockingly, so proposal generation overlaps in-flight
        evaluations (worth real wall-clock on the process/remote backends;
        pipelined proposals condition on an archive up to ``d-1`` batches
        stale).
    ask_size:
        Request size passed to every :meth:`Optimizer.ask` call.  ``None``
        (default) lets the optimizer pick its preferred count — the
        historic protocol.  An integer batches optimizers whose native
        preference is one query per iteration (e.g. random search on a
        parallel backend); optimizers may still return fewer.
    callbacks:
        Iterable of ``callback(study)`` callables fired after every told
        batch (progress printing, checkpointing, external stop requests).
    stop_when:
        Optional ``predicate(history) -> bool`` checked after every batch.
    checkpoint_path / checkpoint_every:
        Crash-resumable runs: with ``checkpoint_path`` set, :meth:`save`
        runs every ``checkpoint_every`` told batches (default 1, i.e. every
        batch) *and* once more on the way out of :meth:`run` — normal
        return or crash — so a long run interrupted by a fleet outage
        resumes from its last told batch via :meth:`load` with nothing
        extra wired up.  ``checkpoint_every`` without ``checkpoint_path``
        is an error.
    warm_start:
        Optional :class:`~repro.core.warmstart.WarmStart` — a donor run's
        archive to transfer in before the first ask.  Same-problem donors
        are *told* as a cost-free warm prefix (and seed the engine cache);
        cross-problem donors contribute mapped starting designs that the
        study simulates as its first batch.  Applied here (at construction)
        so the warm history is inspectable before :meth:`run`.  Warm rows
        never trigger ``stop_when_feasible`` — the run looks for its own
        feasible design.
    """

    def __init__(self, optimizer, *, engine: EvalEngine | None = None,
                 pipeline_depth: int = 1,
                 ask_size: int | None = None,
                 callbacks=(),
                 stop_when: Callable | None = None,
                 checkpoint_path: str | os.PathLike | None = None,
                 checkpoint_every: int | None = None,
                 warm_start=None):
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if ask_size is not None and ask_size < 1:
            raise ValueError("ask_size must be >= 1")
        if checkpoint_every is not None:
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
        if engine is not None:
            optimizer.engine = engine
        self.optimizer = optimizer
        self.pipeline_depth = int(pipeline_depth)
        self.ask_size = None if ask_size is None else int(ask_size)
        self.callbacks = list(callbacks)
        self.stop_when = stop_when
        self.checkpoint_path = (None if checkpoint_path is None
                                else os.fspath(checkpoint_path))
        self.checkpoint_every = 1 if checkpoint_every is None else int(checkpoint_every)
        self.n_batches = 0  # batches told so far
        self._stop_requested = False
        # Replay store armed by :meth:`load`: canonical-design-bytes -> raw
        # row, plus bookkeeping to detect an optimizer that fails to
        # re-derive the recorded proposal stream (wrong hyperparameters).
        self._replay: dict[bytes, np.ndarray] = {}
        self._replay_total = 0   # recorded rows the resume must re-propose
        self._replay_served = 0  # rows answered from the store so far
        # Warm start: donor starting designs the driver simulates before
        # the optimizer's first ask (``designs`` mode), and the applied
        # transfer report (``None`` for cold studies).
        self._seed_designs: np.ndarray | None = None
        self._n_seed_designs = 0
        self.warm_report: dict | None = None
        if warm_start is not None:
            report = warm_start.apply(optimizer)
            if report["mode"] == "designs":
                self._seed_designs = report.pop("designs")
                self._n_seed_designs = len(self._seed_designs)
            self.warm_report = report

    # -- conveniences -------------------------------------------------------
    @property
    def problem(self):
        return self.optimizer.problem

    @property
    def engine(self) -> EvalEngine:
        return self.optimizer.engine

    @property
    def history(self):
        return self.optimizer.history

    def request_stop(self) -> None:
        """Cooperatively end the run after the current batch is told."""
        self._stop_requested = True

    # -- the driver loop ----------------------------------------------------
    def run(self):
        """Drive ask → evaluate → tell until the budget (or a stop) is hit.

        Returns the optimizer's :class:`OptimizationHistory`.  In pipelined
        mode the loop keeps up to ``pipeline_depth`` batches in flight; the
        first batch always completes alone so model-based optimizers never
        have to propose from an empty archive.
        """
        opt = self.optimizer
        problem, engine, history = opt.problem, opt.engine, opt.history
        budget = opt.budget
        counters_before = engine_counter_snapshot(engine)
        inflight: deque = deque()
        proposed = history.n_evals
        stop = self._stop_requested
        try:
            if self._seed_designs is not None:
                # Warm-start (designs mode): the donor's mapped starting
                # points are the run's first batch — simulated and told
                # before the optimizer's first ask, replacing part of its
                # space-filling start with donor-informed designs.
                X0 = problem.space.canonical(self._seed_designs)[:budget - proposed]
                self._seed_designs = None
                self._n_seed_designs = len(X0)
                if len(X0):
                    proposed += len(X0)
                    inflight.append(self._launch(problem, engine, X0))
            while history.n_evals < budget and not stop:
                # Fill the pipeline.  Speculative asks (ask before the
                # previous tell) only start once something has been told.
                while (not stop and len(inflight) < self.pipeline_depth
                       and proposed < budget
                       and (not inflight or history.n_evals > 0)):
                    X = opt.ask(self.ask_size)
                    if len(X) == 0:
                        break  # optimizer is waiting on outstanding tells
                    X = problem.space.canonical(X)[:budget - proposed]
                    proposed += len(X)
                    inflight.append(self._launch(problem, engine, X))
                if not inflight:
                    raise RuntimeError(
                        f"{opt.name}: ask() returned no proposals while no "
                        f"evaluations were in flight — the optimizer is stuck")
                X, F = self._finish(engine, history, inflight.popleft())
                kept = len(X)
                if opt.stop_when_feasible:
                    feasible = problem.is_feasible(F)
                    if feasible.any():
                        # Keep exactly what the serial one-query protocol
                        # would have recorded: up to the first feasible row.
                        kept = int(np.argmax(feasible)) + 1
                        stop = True
                opt.tell(X[:kept], F[:kept])
                self.n_batches += 1
                for callback in self.callbacks:
                    callback(self)
                if (self.checkpoint_path
                        and self.n_batches % self.checkpoint_every == 0):
                    self.save(self.checkpoint_path)
                if self.stop_when is not None and self.stop_when(history):
                    stop = True
                if self._stop_requested:
                    stop = True
        finally:
            # Drain (and discard) whatever is still in flight so no engine
            # worker is left running; results land in the engine cache.
            while inflight:
                try:
                    self._finish(engine, history, inflight.popleft())
                except Exception:
                    pass
            attach_engine_stats(history, engine, counters_before)
            if self.checkpoint_path and self.n_batches:
                # Crash-resumable: whatever ended this run —
                # normal return, ServiceError, KeyboardInterrupt — the last
                # told batch is on disk for Study.load.  Best-effort: a
                # checkpoint failure must not mask the run's own outcome.
                try:
                    self.save(self.checkpoint_path)
                except Exception:
                    pass
        return history

    # -- dispatch -----------------------------------------------------------
    def _launch(self, problem, engine, X: np.ndarray):
        """Start evaluating a canonicalized batch; returns an in-flight record."""
        if self._replay:
            # X is already canonical (run() canonicalizes every batch), so
            # these bytes line up with the store keys built by load() — the
            # same representation the engine cache hashes.
            keys = [np.ascontiguousarray(x).tobytes() for x in X]
            if all(key in self._replay for key in keys):
                F = np.vstack([self._replay[key] for key in keys])
                self._replay_served += len(X)
                return ("done", X, F)
            if self._replay_served < self._replay_total:
                lead = 0
                while lead < len(keys) and keys[lead] in self._replay:
                    lead += 1
                if lead and self._replay_served + lead == self._replay_total:
                    # The recorded run kept only this batch's leading rows —
                    # a ``stop_when_feasible`` truncation ended it mid-batch.
                    # Serve the recorded prefix; telling it re-fires the same
                    # stop, so the dropped suffix is never missed.
                    F = np.vstack([self._replay[key] for key in keys[:lead]])
                    self._replay_served += lead
                    return ("done", X[:lead], F)
                # The fresh optimizer proposed designs the checkpoint never
                # recorded while recorded rows remain unconsumed: its
                # deterministic ask stream differs from the saved run's
                # (different hyperparameters, a code change, ...).  Failing
                # loudly beats silently re-simulating the whole budget into
                # a history unrelated to the checkpoint.
                raise ValueError(
                    f"checkpoint resume diverged after "
                    f"{self._replay_served}/{self._replay_total} recorded "
                    f"evaluations: the optimizer re-proposed designs not in "
                    f"the checkpoint — it is not configured identically to "
                    f"the saved run")
        if self.pipeline_depth == 1:
            start = perf_counter()
            F = engine.evaluate_batch(problem, X)
            self.history.simulation_time += perf_counter() - start
            return ("done", X, F)
        return ("handle", X, engine.submit(problem, X))

    def _finish(self, engine, history, record):
        """Block until an in-flight record's rows are available."""
        if record[0] == "done":
            return record[1], record[2]
        _, X, handle = record
        start = perf_counter()
        F = engine.gather(handle)
        # Pipelined accounting: only the time this thread actually *blocked*
        # on the simulator counts — overlapped in-flight time is the saving.
        history.simulation_time += perf_counter() - start
        return X, F

    # -- checkpoint / resume -------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Write a plain-JSON checkpoint of the run so far (atomic replace).

        The payload carries the design-space description (variable names,
        bounds, kinds) alongside the history, which makes a checkpoint a
        self-contained transfer donor for
        :meth:`repro.core.WarmStart.from_checkpoint` — cross-problem
        mapping needs the donor names and bounds, not just the rows.
        """
        opt = self.optimizer
        space = opt.problem.space
        data = {
            "format": CHECKPOINT_FORMAT,
            "optimizer": {
                "class": type(opt).__name__,
                "name": opt.name,
                "seed": opt.seed,
                "budget": opt.budget,
                "stop_when_feasible": opt.stop_when_feasible,
            },
            "problem": {
                "name": opt.problem.name,
                "dim": opt.problem.dim,
                "fingerprint": _problem_fingerprint(opt.problem),
                "space": {
                    "names": list(space.names),
                    "lower": [float(v) for v in space.lower],
                    "upper": [float(v) for v in space.upper],
                    "kinds": [v.kind for v in space.variables],
                },
            },
            "study": {"pipeline_depth": self.pipeline_depth,
                      "ask_size": self.ask_size,
                      "n_batches": self.n_batches,
                      "n_seed_designs": self._n_seed_designs},
            "history": opt.history.to_dict(),
        }
        path = os.fspath(path)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | os.PathLike, optimizer, *,
             engine: EvalEngine | None = None, **study_kwargs) -> "Study":
        """Arm a fresh optimizer with a saved run's replay store.

        ``optimizer`` must be constructed exactly as the saved run's was
        (same class, seed, budget, problem content *and hyperparameters*) —
        the checkpoint carries no code, only data, and resuming re-derives
        the internal state by re-asking the deterministic proposal sequence
        while answering the recorded prefix from the store.  Identity
        metadata is validated here; a hyperparameter mismatch (which this
        method cannot see) is caught by :meth:`run`, which raises as soon
        as the re-derived proposal stream stops matching the recorded one.
        Call :meth:`Study.run` on the result to finish the run; the final
        history is bit-identical to an uninterrupted one.

        A checkpoint of a *warm-started* study resumes without a
        ``warm_start`` argument: the recorded warm prefix (and any donor
        seed-design batch) is re-applied straight from the payload.
        """
        if "warm_start" in study_kwargs:
            raise ValueError(
                "do not pass warm_start to Study.load: the checkpoint "
                "already carries the applied warm-start prefix")
        with open(os.fspath(path), encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {data.get('format')!r}")
        saved = data["optimizer"]
        mismatches = [
            f"{field}: saved {saved[field]!r} != optimizer {got!r}"
            for field, got in (("class", type(optimizer).__name__),
                               ("name", optimizer.name),
                               ("seed", optimizer.seed),
                               ("budget", optimizer.budget),
                               ("stop_when_feasible", optimizer.stop_when_feasible))
            if saved[field] != got
        ]
        if data["problem"]["dim"] != optimizer.problem.dim:
            mismatches.append(f"problem dim: saved {data['problem']['dim']} != "
                              f"{optimizer.problem.dim}")
        fingerprint = _problem_fingerprint(optimizer.problem)
        if (data["problem"]["fingerprint"] and fingerprint
                and data["problem"]["fingerprint"] != fingerprint):
            mismatches.append("problem content fingerprint differs")
        if mismatches:
            raise ValueError("checkpoint does not match the optimizer: "
                             + "; ".join(mismatches))
        if optimizer.history.n_total:
            raise ValueError("resume needs a fresh (unrun) optimizer instance")
        study_kwargs.setdefault("pipeline_depth", data["study"]["pipeline_depth"])
        study_kwargs.setdefault("ask_size", data["study"].get("ask_size"))
        study = cls(optimizer, engine=engine, **study_kwargs)
        space = optimizer.problem.space
        recorded = data["history"]
        n_warm = int(recorded.get("n_warm", 0))
        if n_warm:
            # Re-apply the donor prefix exactly as the saved run had it:
            # told before the first ask, cost-free, cache-seeded.
            Xw = np.asarray(recorded["X"][:n_warm], dtype=np.float64)
            Fw = np.asarray(recorded["F"][:n_warm], dtype=np.float64)
            optimizer.tell(Xw, Fw)
            optimizer.history.n_warm = n_warm
            optimizer.engine.seed_cache(optimizer.problem, Xw, Fw)
        n_seed = int(data["study"].get("n_seed_designs", 0))
        if n_seed:
            # Donor starting designs (cross-problem warm start) were the
            # run's first fresh batch; rebuild the seed block so run()
            # re-launches it (the replay store answers the rows).
            study._seed_designs = np.asarray(
                recorded["X"][n_warm:n_warm + n_seed], dtype=np.float64)
            study._n_seed_designs = len(study._seed_designs)
        for x, f in zip(recorded["X"][n_warm:], recorded["F"][n_warm:]):
            key = np.ascontiguousarray(
                space.canonical(np.asarray(x, dtype=np.float64))).tobytes()
            study._replay.setdefault(key, np.asarray(f, dtype=np.float64))
        study._replay_total = len(recorded["X"]) - n_warm
        # The prefix's simulator cost is real and will not be re-paid (replay
        # answers it from the store), so carry it over; modeling time is NOT
        # carried — the resume re-runs the prefix's model fits for real and
        # re-accumulates it organically.
        optimizer.history.simulation_time = float(
            data["history"].get("simulation_time_s", 0.0))
        return study


def _problem_fingerprint(problem) -> str | None:
    token = EvalEngine._fingerprint(problem)
    return token.hex() if token is not None else None
