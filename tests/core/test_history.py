"""OptimizationHistory bookkeeping edge cases."""

import numpy as np
import pytest

from repro.core import Study
from repro.core.history import OptimizationHistory, Optimizer
from repro.problems import ConstrainedSphere, Sphere


def test_empty_history_guards():
    history = OptimizationHistory(Sphere(2), "x", 0)
    assert history.n_evals == 0
    assert not history.any_feasible
    assert history.evals_to_first_feasible is None
    assert history.best_feasible_index is None
    assert len(history.fom_curve()) == 0
    with pytest.raises(ValueError):
        _ = history.best_index


def test_append_computes_fom_and_feasibility():
    problem = ConstrainedSphere(2)
    history = OptimizationHistory(problem, "x", 0)
    feasible_x = np.array([1.0, 1.0])
    history.append(feasible_x, problem.evaluate(feasible_x))
    infeasible_x = np.array([-1.0, -1.0])
    history.append(infeasible_x, problem.evaluate(infeasible_x))
    assert history.feasible.tolist() == [True, False]
    assert history.evals_to_first_feasible == 1
    assert history.best_index == 0


def test_best_feasible_prefers_objective_over_fom():
    problem = ConstrainedSphere(2)
    history = OptimizationHistory(problem, "x", 0)
    # Two feasible designs; the second has the smaller objective.
    history.append(np.array([2.0, 2.0]), problem.evaluate(np.array([2.0, 2.0])))
    history.append(np.array([0.6, 0.6]), problem.evaluate(np.array([0.6, 0.6])))
    assert history.best_feasible_index == 1
    assert history.best_feasible_objective == pytest.approx(2 * 0.6**2)


def test_optimizer_budget_exhausted_signal():
    class Greedy(Optimizer):
        name = "greedy"

        def _ask(self, k):
            # never stops proposing: relies on the driver enforcing budget
            return self.problem.space.sample(self.rng, k or 1)

    history = Greedy(Sphere(2), 7, seed=0).run()
    assert history.n_evals == 7


def test_optimizer_rejects_bad_budget():
    with pytest.raises(ValueError):
        class _X(Optimizer):
            name = "x"

        _X(Sphere(2), 0)


def test_simulation_time_accumulates():
    class OneShot(Optimizer):
        name = "one"

        def _ask(self, k):
            return self.problem.space.sample(self.rng, 1)

    history = Study(OneShot(Sphere(2), 3, seed=0)).run()
    assert history.simulation_time > 0.0
    assert history.n_evals == 3


def test_round_trip_preserves_empty_engine_stats():
    # Regression: ``engine_stats == {}`` ("ran with zero counters") used to
    # serialize to None and vanish on reload — a falsy check collapsed an
    # empty-but-present dict into "no engine info ever attached".
    problem = Sphere(2)
    history = OptimizationHistory(problem, "opt", 0)
    history.append(np.array([1.0, 2.0]), problem.evaluate([1.0, 2.0]))
    history.engine_stats = {}
    restored = OptimizationHistory.from_dict(problem, history.to_dict())
    assert restored.engine_stats == {}       # {} stays {}
    history.engine_stats = None
    restored = OptimizationHistory.from_dict(problem, history.to_dict())
    assert restored.engine_stats is None     # None stays None
    history.engine_stats = {"cache_hits": 3}
    restored = OptimizationHistory.from_dict(problem, history.to_dict())
    assert restored.engine_stats == {"cache_hits": 3}


def test_round_trip_preserves_warm_prefix():
    problem = ConstrainedSphere(2)
    history = OptimizationHistory(problem, "opt", 1)
    for x in problem.space.sample(np.random.default_rng(0), 4):
        history.append(x, problem.evaluate(x))
    history.n_warm = 3
    restored = OptimizationHistory.from_dict(problem, history.to_dict())
    assert restored.n_warm == 3
    assert restored.n_evals == 1
    assert restored.n_total == 4
    np.testing.assert_array_equal(restored.X, history.X)


def test_warm_prefix_accounting():
    problem = ConstrainedSphere(2)
    history = OptimizationHistory(problem, "opt", 0)
    feasible_x = np.array([1.0, 1.0])       # coord_sum >= 1 holds
    infeasible_x = np.array([-1.0, -1.0])   # coord_sum = -2 violates
    history.append(feasible_x, problem.evaluate(feasible_x))
    history.n_warm = 1
    history.append(infeasible_x, problem.evaluate(infeasible_x))
    assert history.n_evals == 1
    assert history.n_total == 2
    # the donor's feasible row cost this run nothing: not a sim spent
    assert history.evals_to_first_feasible is None
    history.append(feasible_x * 1.001, problem.evaluate(feasible_x * 1.001))
    assert history.evals_to_first_feasible == 2
