"""Critic and actor networks: learning behaviour and Eq. 3/5 mechanics."""

import numpy as np
import pytest

from repro.core import Actor, Critic, fom_normalized, generate_pseudo_samples
from repro.nn import Tensor


def quadratic_data(n=60, d=2, seed=0):
    """Archive of a quadratic bowl with one linear 'constraint' output."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    f0 = np.sum((X - 0.5) ** 2, axis=1)
    f1 = X[:, 0] - 0.6
    return X, np.column_stack([f0, f1])


class TestCritic:
    def test_fit_reduces_loss_and_predicts(self):
        X, Y = quadratic_data()
        rng = np.random.default_rng(1)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=2000)
        critic = Critic(2, 2, epochs=40, rng=rng)
        critic.fit(inputs, targets)
        rmse = critic.validation_rmse(inputs, targets)
        assert rmse < 0.1

    def test_prediction_shape_and_untrained_guard(self):
        critic = Critic(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            critic.predict(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_input_dimension_validated(self):
        critic = Critic(3, 1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            critic.fit(np.zeros((4, 5)), np.zeros((4, 1)))

    @pytest.mark.parametrize("inputs, targets", [
        (np.zeros((0, 6)), np.zeros((0, 2))),
        (np.zeros((4, 6)), np.zeros((3, 2))),
        (np.full((4, 6), np.nan), np.zeros((4, 2))),
        (np.zeros((4, 6)), np.array([[0.0, 1.0]] * 3 + [[np.inf, 1.0]])),
        (np.zeros((4, 6)), np.array([[0.0, 1.0]] * 3 + [[np.nan, 1.0]])),
    ], ids=["empty", "row-mismatch", "nan-input", "inf-target", "nan-target"])
    def test_fit_rejects_empty_or_non_finite_rows(self, inputs, targets):
        critic = Critic(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            critic.fit(inputs, targets)
        with pytest.raises(RuntimeError):
            critic.predict(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_same_seed_fits_are_bit_identical(self):
        X, Y = quadratic_data(n=30, seed=9)
        inputs, targets = generate_pseudo_samples(X, Y, rng=np.random.default_rng(9),
                                                  max_pairs=900)
        first, second = (Critic(2, 2, epochs=5, rng=np.random.default_rng(10))
                         for _ in range(2))
        assert first.fit(inputs, targets) == second.fit(inputs, targets)
        for a, b in zip(first.net.state_dict(), second.net.state_dict()):
            np.testing.assert_array_equal(a, b)

    def test_float32_training_leaves_float64_parameters_and_predictions(self):
        X, Y = quadratic_data(n=20, seed=11)
        rng = np.random.default_rng(11)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=400)
        critic = Critic(2, 2, epochs=3, rng=rng)
        critic.fit(inputs, targets)
        assert all(p.data.dtype == np.float64 for p in critic.net.parameters())
        assert critic.predict(X[:4], np.zeros((4, 2))).dtype == np.float64
        assert critic.net.predict(inputs[:4]).dtype == np.float64

    def test_archive_with_failure_rows_predicts_finite(self):
        """Failure rows put z-scored targets far out; float32 training must
        still give a finite critic."""
        from repro.problems import ConstrainedSphere

        problem = ConstrainedSphere(3)
        rng = np.random.default_rng(12)
        X = problem.space.sample(rng, 30)
        F = np.vstack([problem.evaluate(x) for x in X])
        F[::5] = problem.failure_vector()
        Xn, Yn = problem.space.normalize(X), problem.normalize(F)
        inputs, targets = generate_pseudo_samples(Xn, Yn, rng=rng, max_pairs=900)
        critic = Critic(3, Yn.shape[1], epochs=5, rng=rng)
        assert np.isfinite(critic.fit(inputs, targets))
        anchors = rng.uniform(size=(20, 3))
        prediction = critic.predict(anchors, rng.uniform(-0.5, 0.5, size=(20, 3)))
        assert np.isfinite(prediction).all()

    def test_pseudo_samples_improve_displaced_prediction(self):
        """The paper's claim: the 2d critic predicts f(x + dx) better than a
        d-input net evaluated at x (which cannot see the displacement)."""
        X, Y = quadratic_data(n=50, seed=4)
        rng = np.random.default_rng(4)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=2500)
        critic = Critic(2, 2, epochs=40, rng=rng)
        critic.fit(inputs, targets)
        # Evaluate on fresh anchor/displacement pairs.
        test_rng = np.random.default_rng(99)
        anchors = test_rng.uniform(0.2, 0.8, size=(50, 2))
        moves = test_rng.uniform(-0.2, 0.2, size=(50, 2))
        moved = np.clip(anchors + moves, 0, 1)
        truth = np.column_stack([np.sum((moved - 0.5) ** 2, axis=1), moved[:, 0] - 0.6])
        prediction = critic.predict(anchors, moves)
        rmse_2d = np.sqrt(np.mean((prediction - truth) ** 2))
        assert rmse_2d < 0.15


class TestActor:
    def test_actor_moves_toward_critic_minimum(self):
        """With a critic that rewards moving to the center, trained actor
        proposals should point toward the center."""
        X, Y = quadratic_data(n=80, seed=5)
        rng = np.random.default_rng(5)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=4000)
        critic = Critic(2, 2, epochs=50, rng=rng)
        critic.fit(inputs, targets)

        actor = Actor(2, epochs=80, rng=rng)
        anchors = np.array([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9], [0.85, 0.2]])
        actor.fit(critic, anchors, np.zeros(2), np.ones(2),
                  w0=1.0, weights=np.array([0.0001]))
        moves = actor.propose(anchors)
        moved = anchors + moves
        before = np.linalg.norm(anchors - 0.5, axis=1)
        after = np.linalg.norm(moved - 0.5, axis=1)
        assert np.mean(after) < np.mean(before)

    def test_boundary_penalty_keeps_proposals_inside(self):
        X, Y = quadratic_data(n=40, seed=6)
        rng = np.random.default_rng(6)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=1500)
        critic = Critic(2, 2, epochs=20, rng=rng)
        critic.fit(inputs, targets)

        actor = Actor(2, epochs=60, rng=rng)
        lb = np.array([0.4, 0.4])
        ub = np.array([0.6, 0.6])
        anchors = np.array([[0.45, 0.55], [0.55, 0.45], [0.5, 0.5]])
        actor.fit(critic, anchors, lb, ub, w0=1.0, weights=np.array([1.0]), lam=100.0)
        moved = anchors + actor.propose(anchors)
        assert np.all(moved > lb - 0.05)
        assert np.all(moved < ub + 0.05)

    def test_actor_training_does_not_modify_critic(self):
        X, Y = quadratic_data(n=30, seed=7)
        rng = np.random.default_rng(7)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=900)
        critic = Critic(2, 2, epochs=10, rng=rng)
        critic.fit(inputs, targets)
        before = critic.net.state_dict()
        actor = Actor(2, epochs=20, rng=rng)
        actor.fit(critic, X[:5], np.zeros(2), np.ones(2),
                  w0=1.0, weights=np.array([1.0]))
        after = critic.net.state_dict()
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)
        # and the critic parameters stay trainable
        assert all(p.requires_grad for p in critic.net.parameters())

    def test_step_scale_tracks_region(self):
        rng = np.random.default_rng(8)
        actor = Actor(3, epochs=1, rng=rng)
        X, Y = quadratic_data(n=20, d=3, seed=8)
        inputs, targets = generate_pseudo_samples(X, Y, rng=rng, max_pairs=300)
        critic = Critic(3, 2, epochs=2, rng=rng)
        critic.fit(inputs, targets)
        lb = np.array([0.2, 0.2, 0.2])
        ub = np.array([0.4, 0.8, 0.2 + 1e-9])
        actor.fit(critic, X[:4], lb, ub, w0=1.0, weights=np.array([1.0]))
        np.testing.assert_allclose(actor.step_scale[:2], [0.2, 0.6], atol=1e-9)
        assert actor.step_scale[2] >= 1e-6  # floored, never zero


def central_difference(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    for index in np.ndindex(array.shape):
        original = array[index]
        array[index] = original + eps
        high = fn()
        array[index] = original - eps
        low = fn()
        array[index] = original
        grad[index] = (high - low) / (2 * eps)
    return grad


class TestActorLoss:
    """``Actor._loss``: its value against Eq. 4-6 in NumPy, its hand-written
    backward against central finite differences."""

    LB, UB, STEP = 0.4, 0.6, 0.2

    def setup(self, d, m, seed):
        """Actor, critic and designs; the critic's constraint outputs are
        un-scaled to sit in the clip band (~0.4), below it (~-5) or above
        it (~5), in turn."""
        rng = np.random.default_rng(seed)
        critic = Critic(d, m + 1, hidden=(8, 8), epochs=1, rng=rng)
        critic.fit(rng.uniform(size=(20, 2 * d)), rng.normal(size=(20, m + 1)))
        centres = np.array([0.4, -5.0, 5.0])[np.arange(m) % 3]
        critic.target_scaler.mean_ = np.concatenate([[0.3], centres])
        critic.target_scaler.scale_ = np.concatenate([[1.0], np.full(m, 0.05)])
        actor = Actor(d, hidden=(6,), rng=rng)
        actor.step_scale = np.full(d, self.STEP)
        # Rows inside the region, and rows the actor cannot bring back into
        # it (|dx| < STEP): below lb and above ub.
        x = np.vstack([rng.uniform(0.45, 0.55, size=(3, d)),
                       rng.uniform(0.0, self.LB - self.STEP - 0.05, size=(2, d)),
                       rng.uniform(self.UB + self.STEP + 0.05, 1.0, size=(2, d))])
        lb, ub = np.full(d, self.LB), np.full(d, self.UB)
        weights = rng.uniform(0.5, 1.5, size=m)
        return actor, critic, x, lb, ub, weights

    @staticmethod
    def loss(actor, critic, x, lb, ub, weights, w0=1.3, lam=3.0):
        return actor._loss(actor.net(Tensor(x)), x, critic, lb, ub, w0, weights, lam)

    @staticmethod
    def gradient(actor, *args):
        actor.net.zero_grad()
        TestActorLoss.loss(actor, *args).backward()
        return [p.grad for p in actor.net.parameters()]

    @pytest.mark.parametrize("d, m", [(3, 3), (2, 0), (4, 1), (2, 5)])
    def test_value_matches_numpy_fom_and_penalty(self, d, m):
        actor, critic, x, lb, ub, weights = self.setup(d, m, seed=d + 10 * m)
        dx = actor.propose(x)
        moved = x + dx
        assert (moved < lb).any() and (moved > ub).any()
        fom = fom_normalized(critic.predict(x, dx), 1.3, weights)
        viol = np.maximum(lb - moved, 0.0) + np.maximum(moved - ub, 0.0)
        expected = np.mean(fom + np.sum((3.0 * viol) ** 2, axis=1))
        got = self.loss(actor, critic, x, lb, ub, weights).item()
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d, m", [(3, 3), (2, 0), (4, 1), (2, 5)])
    def test_backward_matches_finite_differences(self, d, m):
        actor, critic, x, lb, ub, weights = self.setup(d, m, seed=d + 10 * m)
        args = (critic, x, lb, ub, weights)
        grads = self.gradient(actor, *args)
        for p, grad in zip(actor.net.parameters(), grads):
            expected = central_difference(lambda: self.loss(actor, *args).item(), p.data)
            np.testing.assert_allclose(grad, expected, rtol=1e-5,
                                       atol=1e-7 * np.abs(expected).max())

    def test_constraint_outside_clip_band_gets_no_gradient(self):
        """Steepening a constraint's response changes the actor gradient only
        while that constraint's clipped term is inside (0, 1)."""
        actor, critic, x, lb, ub, weights = self.setup(3, 3, seed=3)
        args = (critic, x, lb, ub, weights)
        terms = weights * critic.predict(x, actor.propose(x))[:, 1:]
        in_band = (terms > 0) & (terms < 1)
        assert in_band[:, 0].all() and not in_band[:, 1:].any()
        base = self.gradient(actor, *args)
        scale = critic.target_scaler.scale_
        for column, in_band in ((1, True), (2, False), (3, False)):
            original = scale[column]
            scale[column] = 2 * original
            changed = self.gradient(actor, *args)
            scale[column] = original
            same = all(np.array_equal(a, b) for a, b in zip(base, changed))
            assert same != in_band
