"""FoM (Eq. 4) and pseudo-sample generation (Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import fom_from_raw, fom_normalized, generate_pseudo_samples
from repro.problems import ConstrainedSphere


class TestFoM:
    def test_feasible_design_has_only_objective_term(self):
        Fn = np.array([[0.3, -0.5, -0.1]])
        weights = np.array([1.0, 1.0])
        assert fom_normalized(Fn, 2.0, weights)[0] == pytest.approx(0.6)

    def test_violations_clip_at_one(self):
        Fn = np.array([[0.0, 50.0, 0.2]])
        value = fom_normalized(Fn, 1.0, np.array([1.0, 1.0]))[0]
        assert value == pytest.approx(1.0 + 0.2)

    def test_negative_violations_clip_at_zero(self):
        Fn = np.array([[0.0, -50.0]])
        assert fom_normalized(Fn, 1.0, np.array([1.0]))[0] == pytest.approx(0.0)

    def test_weights_scale_violations(self):
        Fn = np.array([[0.0, 0.4]])
        assert fom_normalized(Fn, 1.0, np.array([2.0]))[0] == pytest.approx(0.8)

    def test_unconstrained_problem(self):
        Fn = np.array([[1.5]])
        assert fom_normalized(Fn, 0.5, np.empty(0))[0] == pytest.approx(0.75)

    def test_fom_from_raw_matches_manual(self):
        problem = ConstrainedSphere(3)
        F = problem.evaluate_batch(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
        fom = fom_from_raw(problem, F)
        assert fom[0] < fom[1]  # feasible point beats infeasible origin


class TestPseudoSamples:
    def test_full_pairs_when_small(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1.0], [2.0], [3.0]])
        rng = np.random.default_rng(0)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=100)
        assert inputs.shape == (9, 4)
        assert targets.shape == (9, 1)

    def test_eq2_semantics(self):
        """input = [x_i, x_j - x_i], target = f(x_j) for every pair."""
        X = np.array([[0.0], [2.0]])
        Y = np.array([[10.0], [20.0]])
        rng = np.random.default_rng(0)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=100)
        rows = {tuple(i): t[0] for i, t in zip(inputs, targets)}
        assert rows[(0.0, 0.0)] == 10.0    # (x0, x0)
        assert rows[(0.0, 2.0)] == 20.0    # (x0, x1): dx=+2, target f(x1)
        assert rows[(2.0, -2.0)] == 10.0   # (x1, x0): dx=-2, target f(x0)
        assert rows[(2.0, 0.0)] == 20.0

    def test_cap_respected_with_self_pairs(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        Y = rng.normal(size=(40, 2))
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=200)
        assert len(inputs) == 200
        # the 40 self-pairs (dx = 0) are always included
        zero_dx = np.all(inputs[:, 3:] == 0.0, axis=1)
        assert zero_dx.sum() >= 40

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            generate_pseudo_samples(np.ones((3, 2)), np.ones((2, 1)),
                                    rng=np.random.default_rng(0))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 12))
    def test_targets_always_from_archive(self, n):
        """Property: every pseudo-target is an existing archive row."""
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2))
        Y = rng.normal(size=(n, 3))
        _, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=50)
        for target in targets:
            assert np.any(np.all(np.isclose(Y, target), axis=1))
