"""Multi-trial experiment runner.

The paper repeats every experiment ten times to account for randomization
(Section III-A); :func:`run_trials` reproduces that protocol and
:func:`compare_algorithms` runs it for a dictionary of optimizer factories
on one problem, returning per-algorithm history lists ready for the
statistics/curve modules.

Trials are independent — trial ``i`` always runs with seed
``base_seed + i`` on a fresh problem instance — so ``workers > 1``
dispatches them across a process pool with no change to the results: the
parallel-runner tests pin that ``workers=4`` histories are identical,
trial for trial, to the serial run.  On platforms with ``fork`` the worker
processes inherit the factories directly (lambdas work); elsewhere, and
inside already-parallel (daemonic) contexts, the runner degrades to a
thread pool or the serial loop.

Trial context travels *with* each dispatch — as an explicit argument for
the serial/thread paths and through the pool initializer for process
pools — never through a module-level global, so concurrent
:func:`run_trials` calls (thread pools, the evaluation service)
can never run each other's factories.

``engine_factory`` is the one way to configure a trial's evaluation
backend: each trial builds its own :class:`~repro.core.engine.EvalEngine`
from the factory, attaches it to the optimizer, and closes it when the
trial ends.  ``engine_factory=lambda: EvalEngine("remote", hosts=[...])``
targets an already-running evaluation service (see
:mod:`repro.core.service`); ``partial(EvalEngine, cache_dir=d)`` gives
every trial a persistent disk cache (``REPRO_CACHE_DIR`` does the same for
default engines).

Every trial is driven by a barrier :class:`~repro.core.Study` (the ask/tell
driver), so each trial follows the paper's sequential Algorithm 1.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable

from ..core.blas import openblas_threading, set_blas_threads
from ..core.history import OptimizationHistory
from ..core.study import Study

__all__ = ["run_trials", "compare_algorithms"]

OptimizerFactory = Callable[[object, int, int], object]
"""Signature: factory(problem, budget, seed) -> Optimizer."""

# Context bound inside *pool worker processes* by the pool initializer; each
# pool gets its own workers, so concurrent run_trials calls never share it.
_POOL_CONTEXT: tuple | None = None


def _init_pool_worker(context: tuple) -> None:
    global _POOL_CONTEXT
    _POOL_CONTEXT = context
    set_blas_threads(1)


def _pool_trial(trial: int) -> OptimizationHistory:
    return _execute_trial(_POOL_CONTEXT, trial)


def _execute_trial(context: tuple, trial: int) -> OptimizationHistory:
    factory, problem_factory, budget, base_seed, engine_factory, warm_start = context
    problem = problem_factory()
    optimizer = factory(problem, budget, base_seed + trial)
    engine = engine_factory() if engine_factory is not None else None
    try:
        return Study(optimizer, engine=engine, warm_start=warm_start).run()
    finally:
        if engine is not None:
            engine.close()


def run_trials(factory: OptimizerFactory, problem_factory: Callable[[], object],
               *, budget: int, n_trials: int, base_seed: int = 0,
               workers: int = 1, verbose: bool = False,
               engine_factory: Callable[[], object] | None = None,
               warm_start=None,
               fleet=None,
               ) -> list[OptimizationHistory]:
    """Run ``n_trials`` independent optimizations with seeds
    ``base_seed, base_seed+1, ...`` (a fresh problem instance per trial).

    ``workers > 1`` runs trials concurrently on a process pool; histories
    come back in trial order and are identical to a serial run.
    ``engine_factory`` builds a per-trial :class:`~repro.core.EvalEngine`
    (e.g. pointing at a running evaluation service) that is attached to the
    optimizer and closed after its trial.  A ``process`` engine inside forked
    trial workers (which are daemonic) evaluates in-process, with the same
    rows; elsewhere it starts its own pool.  Either way the problem must
    pickle.

    ``warm_start`` is a :class:`~repro.core.WarmStart` applied to *every*
    trial (each trial maps/tells the donor archive independently — the
    per-trial seeds still differ, so trials stay independent).

    ``fleet`` points every trial at a shared
    :class:`~repro.core.fleet.FleetCoordinator`: each trial becomes its
    own tenant (``fleet.engine()`` per trial), so concurrent trials share
    the worker fleet under the fair scheduler.  Mutually exclusive with
    ``engine_factory``.  The coordinator lives in *this* process, so
    parallel trials run on the thread pool rather than forked workers.
    """
    workers = max(1, int(workers))
    if fleet is not None:
        if engine_factory is not None:
            raise ValueError("pass either fleet= or engine_factory=, not both")
        engine_factory = fleet.engine
    context = (factory, problem_factory, int(budget), int(base_seed),
               engine_factory, warm_start)
    if workers == 1 or n_trials <= 1:
        histories = []
        for trial in range(n_trials):
            histories.append(_execute_trial(context, trial))
            if verbose:
                _print_trial(trial, histories[-1])
        return histories
    histories = _map_trials(context, range(n_trials), min(workers, n_trials),
                            force_threads=fleet is not None)
    if verbose:
        # Parallel trials finish out of order; report once all are in.
        for trial, history in enumerate(histories):
            _print_trial(trial, history)
    return histories


def _print_trial(trial: int, history: OptimizationHistory) -> None:
    summary = history.summary()
    print(f"  [{summary['optimizer']}] trial {trial}: "
          f"feasible={summary['feasible']} "
          f"first={summary['evals_to_first_feasible']} "
          f"best_obj={summary['best_feasible_objective']}")


def _map_trials(context: tuple, trials, workers: int, *,
                force_threads: bool = False) -> list[OptimizationHistory]:
    """Map the trials over the best pool available.

    Preference order: fork-based process pool (true parallelism, factories
    inherited without pickling, context bound per-worker by the pool
    initializer) -> thread pool (daemonic/parallel contexts and platforms
    without fork; context passed by partial) -> serial loop.
    ``force_threads`` skips the fork pool — a fleet coordinator's threads
    and sockets don't survive fork, so its tenants must dispatch from this
    process.
    """
    use_fork = (not force_threads
                and "fork" in mp.get_all_start_methods()
                and not mp.current_process().daemon)
    if use_fork:
        openblas_threading()  # resolved once here, inherited by every worker
        try:
            pool = mp.get_context("fork").Pool(processes=workers,
                                               initializer=_init_pool_worker,
                                               initargs=(context,))
        except OSError:
            pool = None  # out of processes — fall through to threads
        if pool is not None:
            # Trial exceptions propagate from pool.map untouched; only a
            # failure to *create* the pool triggers the thread fallback.
            with pool:
                return pool.map(_pool_trial, trials)
    with ThreadPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(partial(_execute_trial, context), trials))


def compare_algorithms(optimizers: dict[str, OptimizerFactory],
                       problem_factory: Callable[[], object], *,
                       budget: int, n_trials: int, base_seed: int = 0,
                       budgets: dict[str, int] | None = None,
                       workers: int = 1,
                       verbose: bool = False,
                       engine_factory: Callable[[], object] | None = None,
                       warm_start=None,
                       fleet=None,
                       ) -> dict[str, list[OptimizationHistory]]:
    """Run every algorithm with the multi-trial protocol.

    ``budgets`` overrides the budget per algorithm (the paper gives DE 10000
    simulations but the model-based methods only 500); overrides are applied
    per algorithm before its trials are dispatched, so they hold under any
    ``workers`` setting.  ``engine_factory``, ``warm_start`` and ``fleet``
    are forwarded to :func:`run_trials` (with engines sharing one
    ``cache_dir``, an algorithm re-proposing a design any earlier algorithm
    already simulated gets it answered from disk).
    """
    workers = max(1, int(workers))
    results: dict[str, list[OptimizationHistory]] = {}
    for name, factory in optimizers.items():
        algo_budget = (budgets or {}).get(name, budget)
        if verbose:
            print(f"running {name} (budget {algo_budget}, {n_trials} trials, "
                  f"{workers} workers)")
        results[name] = run_trials(factory, problem_factory, budget=algo_budget,
                                   n_trials=n_trials, base_seed=base_seed,
                                   workers=workers, verbose=verbose,
                                   engine_factory=engine_factory,
                                   warm_start=warm_start, fleet=fleet)
    return results
