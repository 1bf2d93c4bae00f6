"""DNN-Opt end-to-end behaviour (Algorithm 1)."""

import numpy as np
import pytest

import repro.core.dnn_opt as dnn_opt_module
from repro.core import Critic, DNNOpt, Study
from repro.problems import ConstrainedSphere, PressureVessel, Sphere


def fast_dnnopt(problem, budget, seed=0, **kw):
    """Small networks / few epochs so tests stay quick."""
    defaults = dict(n_init=10, n_elite=6, critic_epochs=8, actor_epochs=10,
                    critic_hidden=(32, 32), actor_hidden=(32, 32), max_pseudo=1500)
    defaults.update(kw)
    return DNNOpt(problem, budget, seed, **defaults)


def test_respects_budget_exactly():
    history = fast_dnnopt(Sphere(3), 25, seed=1).run()
    assert history.n_evals == 25


def test_beats_random_search_on_sphere():
    problem = Sphere(4)
    history = fast_dnnopt(problem, 50, seed=2).run()
    rng = np.random.default_rng(2)
    random_best = problem.evaluate_batch(problem.space.sample(rng, 50))[:, 0].min()
    assert history.F[:, 0].min() < random_best


def test_finds_feasible_on_constrained_problem():
    history = fast_dnnopt(ConstrainedSphere(3), 40, seed=3).run()
    assert history.any_feasible
    assert history.evals_to_first_feasible is not None


def test_stop_when_feasible_halts_early():
    opt = fast_dnnopt(ConstrainedSphere(2), 60, seed=4, stop_when_feasible=True)
    history = opt.run()
    assert history.any_feasible
    assert history.n_evals == history.evals_to_first_feasible


def test_integer_variables_stay_integral():
    history = fast_dnnopt(PressureVessel(), 25, seed=5).run()
    X = history.X
    np.testing.assert_allclose(X[:, 0], np.round(X[:, 0]))
    np.testing.assert_allclose(X[:, 1], np.round(X[:, 1]))


def test_no_duplicate_queries():
    history = fast_dnnopt(Sphere(2), 35, seed=6).run()
    X = history.X
    distances = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    np.fill_diagonal(distances, np.inf)
    assert distances.min() > 1e-12


def test_initial_designs_are_simulated_first():
    problem = Sphere(3)
    seeds = np.array([[0.1, 0.2, 0.3], [1.0, 1.0, 1.0]])
    history = fast_dnnopt(problem, 20, seed=7, initial_designs=seeds).run()
    np.testing.assert_allclose(history.X[0], seeds[0])
    np.testing.assert_allclose(history.X[1], seeds[1])


def test_seed_reproducibility():
    h1 = fast_dnnopt(Sphere(3), 20, seed=11).run()
    h2 = fast_dnnopt(Sphere(3), 20, seed=11).run()
    np.testing.assert_allclose(h1.X, h2.X)
    h3 = fast_dnnopt(Sphere(3), 20, seed=12).run()
    assert not np.allclose(h1.X, h3.X)


def test_modeling_time_recorded():
    history = fast_dnnopt(Sphere(2), 15, seed=8).run()
    assert history.modeling_time > 0.0


def test_pseudo_sample_ablation_switch_runs():
    history = fast_dnnopt(Sphere(2), 18, seed=9, use_pseudo_samples=False).run()
    assert history.n_evals == 18


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        DNNOpt(Sphere(2), 10, n_elite=1)
    with pytest.raises(ValueError):
        DNNOpt(Sphere(2), 10, n_init=1)
    with pytest.raises(ValueError):
        DNNOpt(Sphere(2), 0)
    for name in ("critic_refresh", "critic_epochs", "critic_batch", "actor_epochs",
                 "max_pseudo"):
        with pytest.raises(ValueError, match=name):
            DNNOpt(Sphere(2), 10, **{name: 0})


def test_budget_smaller_than_ninit():
    history = fast_dnnopt(Sphere(2), 5, seed=10).run()
    assert history.n_evals == 5


def test_history_summary_fields():
    history = fast_dnnopt(ConstrainedSphere(2), 20, seed=13).run()
    summary = history.summary()
    assert summary["optimizer"] == "DNN-Opt"
    assert summary["n_evals"] == 20
    assert "best_fom" in summary and "modeling_time_s" in summary


def test_fom_curve_monotone_nonincreasing():
    history = fast_dnnopt(Sphere(3), 25, seed=14).run()
    curve = history.fom_curve()
    assert len(curve) == 25
    assert np.all(np.diff(curve) <= 1e-12)


# ----------------------------------------------------------------------
# Batched proposals (Eq. 8 generalized to top-k queries per iteration)
# ----------------------------------------------------------------------
def test_batch_size_respects_budget_exactly():
    # 23 is not a multiple of 4: the final batch must truncate.
    history = fast_dnnopt(Sphere(3), 23, seed=15, batch_size=4).run()
    assert history.n_evals == 23


def test_batch_queries_are_unique():
    history = fast_dnnopt(Sphere(2), 30, seed=16, batch_size=3).run()
    X = history.X
    distances = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    np.fill_diagonal(distances, np.inf)
    assert distances.min() > 1e-12


def test_batch_run_is_seed_deterministic():
    h1 = fast_dnnopt(Sphere(3), 22, seed=17, batch_size=3).run()
    h2 = fast_dnnopt(Sphere(3), 22, seed=17, batch_size=3).run()
    np.testing.assert_array_equal(h1.X, h2.X)
    np.testing.assert_array_equal(h1.fom, h2.fom)


def test_batch_size_one_matches_default():
    default = fast_dnnopt(Sphere(3), 20, seed=18).run()
    explicit = fast_dnnopt(Sphere(3), 20, seed=18, batch_size=1).run()
    np.testing.assert_array_equal(default.X, explicit.X)


def test_invalid_batch_size_rejected():
    with pytest.raises(ValueError):
        fast_dnnopt(Sphere(2), 10, batch_size=0)


def test_select_non_duplicate_returns_requested_count_in_tight_region():
    """A fully-collapsed elite region must still yield `count` unique designs.

    Every candidate duplicates the archive, the restricted region has zero
    width, and the space is integer-only — the fallback has to keep drawing
    until it finds genuinely new designs (the space has plenty).
    """
    from repro.problems.base import DesignSpace, Objective, OptimizationProblem, Variable

    class IntGrid(OptimizationProblem):
        def __init__(self):
            space = DesignSpace([Variable("a", 0, 20, kind="integer"),
                                 Variable("b", 0, 20, kind="integer")])
            super().__init__(space, Objective("f", scale=1.0), [])

        def _evaluate(self, x):
            return [float(x[0] + x[1])]

    problem = IntGrid()
    opt = fast_dnnopt(problem, 50, seed=19, batch_size=4)
    # Archive a handful of designs; make every candidate a duplicate of them.
    X = np.array([[3.0, 3.0], [3.0, 4.0], [4.0, 3.0]])
    opt.tell(X, problem.evaluate_batch(X))
    archived_n = problem.space.normalize(opt.history.X)
    candidates = np.vstack([archived_n] * 3)
    scores = np.arange(len(candidates), dtype=np.float64)
    lb = ub = problem.space.normalize(np.array([3.0, 3.0]))  # zero-width region

    chosen = opt._select_non_duplicate(candidates, scores, lb, ub, count=4)
    assert chosen.shape == (4, 2)
    raw = problem.space.round(problem.space.denormalize(chosen))
    # All four are new (not archived) and mutually distinct.
    for row in raw:
        assert not any(np.array_equal(row, a) for a in opt.history.X)
    assert len({tuple(row) for row in raw}) == 4


def test_select_non_duplicate_prefers_scored_candidates():
    problem = Sphere(2)
    opt = fast_dnnopt(problem, 30, seed=20)
    candidates = np.array([[0.2, 0.2], [0.4, 0.4], [0.6, 0.6], [0.8, 0.8]])
    scores = np.array([3.0, 0.0, 1.0, 2.0])  # best first: idx 1, 2, 3, 0
    lb, ub = np.zeros(2), np.ones(2)
    chosen = opt._select_non_duplicate(candidates, scores, lb, ub, count=2)
    np.testing.assert_allclose(chosen, candidates[[1, 2]])


# ----------------------------------------------------------------------
# Critic refresh schedule: a fresh critic every ``critic_refresh`` fits,
# short warm fine-tunes of the previous one in between
# ----------------------------------------------------------------------
@pytest.fixture
def recording_critic(monkeypatch):
    """Swap DNN-Opt's Critic for a subclass that logs builds and fits.

    Each fit logs ``(critic, epochs, weights before, weights after)``.
    """
    log = {"built": [], "fits": []}

    class RecordingCritic(Critic):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            log["built"].append(self)

        def fit(self, inputs, targets, *, epochs=None):
            before = [p.data.copy() for p in self.net.parameters()]
            loss = super().fit(inputs, targets, epochs=epochs)
            after = [p.data.copy() for p in self.net.parameters()]
            log["fits"].append((self, epochs, before, after))
            return loss

    monkeypatch.setattr(dnn_opt_module, "Critic", RecordingCritic)
    return log


def test_critic_refresh_one_builds_a_fresh_critic_every_ask(recording_critic):
    fast_dnnopt(Sphere(2), 15, seed=21, critic_refresh=1).run()
    assert len(recording_critic["built"]) == 5  # one per model-based ask
    assert [epochs for _, epochs, _, _ in recording_critic["fits"]] == [None] * 5


def test_critic_refresh_schedule_builds_every_fifth_fit(recording_critic):
    fast_dnnopt(Sphere(2), 17, seed=22, critic_epochs=10, critic_refresh=5).run()
    fits = recording_critic["fits"]
    assert len(fits) == 7
    assert len(recording_critic["built"]) == 2
    assert [epochs for _, epochs, _, _ in fits] == [None, 2, 2, 2, 2, None, 2]
    owners = [critic for critic, _, _, _ in fits]
    assert owners[:5] == [recording_critic["built"][0]] * 5
    assert owners[5:] == [recording_critic["built"][1]] * 2


def test_warm_fit_starts_from_previous_weights(recording_critic):
    fast_dnnopt(Sphere(2), 13, seed=23, critic_refresh=5).run()
    fits = recording_critic["fits"]
    assert len(fits) == 3
    for (_, _, _, previous_after), (_, epochs, before, after) in zip(fits, fits[1:]):
        assert epochs == 1  # max(1, 8 // 5)
        for start, end in zip(before, previous_after):
            np.testing.assert_array_equal(start, end)
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))


def test_checkpoint_mid_cycle_resumes_bit_identical(tmp_path):
    make = lambda: fast_dnnopt(Sphere(2), 22, seed=24, critic_refresh=5)
    reference = Study(make()).run()

    # Stop after 13 simulations: 3 model fits, mid-way through the first cycle.
    path = tmp_path / "ckpt.json"
    partial = Study(make(), checkpoint_path=str(path),
                    callbacks=[lambda s: s.history.n_evals >= 13
                               and s.request_stop()]).run()
    assert partial.n_evals == 13
    finished = Study.load(str(path), make()).run()
    np.testing.assert_array_equal(reference.X, finished.X)
    np.testing.assert_array_equal(reference.F, finished.F)
