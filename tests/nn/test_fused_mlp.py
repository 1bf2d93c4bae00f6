"""The fused MLP kernel against the per-op tape and against finite differences.

``MLP`` runs its Linear+activation stack as one fused forward pass and one
hand-written VJP.  The per-op path is still reachable as ``mlp.net``, a
``Sequential`` of ``Linear``/activation modules that records one tape node
per op; the fused kernel must reproduce it bit for bit.  Adding an
activation means adding it to ``ACTIVATIONS`` below.
"""

import numpy as np
import pytest

from repro.core import Critic, generate_pseudo_samples
from repro.nn import MLP, Adam, Tensor, mse_loss

ACTIVATIONS = ["relu", "leaky_relu", "tanh", "sigmoid", "identity"]


def make_mlp(activation, seed=0, in_features=3, out_features=2, hidden=(7, 5)):
    return MLP(in_features, out_features, hidden, activation=activation,
               output_activation=activation, rng=np.random.default_rng(seed))


def inputs(rows=11, features=3, seed=1):
    return np.random.default_rng(seed).normal(0.0, 1.5, size=(rows, features))


def tape_fit_mse(mlp, x, y, *, lr, epochs, batch_size, rng):
    """Reference trainer: per-op tape forward, ``mse_loss``, ``Adam.step``.

    Like ``fit_mse`` it trains in float32: the parameters and data are cast
    once, and the tape, the lifted constants and Adam's moments follow their
    dtype.  ``mlp``'s parameters are left float32.
    """
    for p in mlp.parameters():
        p.data = p.data.astype(np.float32)
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y, dtype=np.float32)
    optimizer = Adam(mlp.parameters(), lr=lr)
    n = len(x)
    batch = min(batch_size, n)
    last = np.inf
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch):
            rows = order[start:start + batch]
            loss = mse_loss(mlp.net(Tensor(x[rows])), Tensor(y[rows]))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        last = float(np.mean(losses))
    return last


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_matches_tape(activation):
    mlp = make_mlp(activation)
    x = inputs()
    reference = mlp.net(Tensor(x)).data
    np.testing.assert_array_equal(mlp(Tensor(x)).data, reference)
    np.testing.assert_array_equal(mlp.predict(x), reference)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_vjp_matches_tape(activation):
    mlp = make_mlp(activation)
    x_data = inputs()
    seed_grad = np.random.default_rng(2).normal(size=(len(x_data), 2))

    def grads(forward):
        mlp.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        forward(x).backward(seed_grad)
        return [x.grad] + [p.grad for p in mlp.parameters()]

    fused = grads(mlp)
    reference = grads(mlp.net)
    assert len(fused) == 1 + len(mlp.parameters())
    for got, expected in zip(fused, reference):
        np.testing.assert_array_equal(got, expected)


def test_frozen_parameters_get_no_gradient():
    mlp = make_mlp("relu")
    params = mlp.parameters()
    for p in params:
        p.requires_grad = False
    x = Tensor(inputs(), requires_grad=True)
    mlp(x).sum().backward()
    assert x.grad is not None
    assert all(p.grad is None for p in params)


def test_one_tape_node_per_call():
    mlp = make_mlp("tanh")
    x = Tensor(inputs(), requires_grad=True)
    out = mlp(x)
    assert out._parents[0] is x
    assert list(out._parents[1:]) == mlp.parameters()


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_fit_mse_matches_tape_training(activation):
    x = inputs(rows=50)
    y = np.random.default_rng(3).normal(size=(50, 2))
    fused, reference = make_mlp(activation), make_mlp(activation)
    kwargs = dict(lr=1e-2, epochs=3, batch_size=16)
    loss = fused.fit_mse(x, y, rng=np.random.default_rng(4), **kwargs)
    expected = tape_fit_mse(reference, x, y, rng=np.random.default_rng(4), **kwargs)
    assert loss == expected
    for got, want in zip(fused.parameters(), reference.parameters()):
        assert (got.data.dtype, want.data.dtype) == (np.float64, np.float32)
        np.testing.assert_array_equal(got.data, want.data)


def test_critic_fit_matches_tape_training():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(40, 3))
    Y = np.column_stack([np.sum((X - 0.5) ** 2, axis=1), X[:, 0] - 0.6])
    pseudo_in, pseudo_out = generate_pseudo_samples(X, Y, rng=rng, max_pairs=1000)
    fused = Critic(3, 2, epochs=4, rng=np.random.default_rng(6))
    reference = Critic(3, 2, epochs=4, rng=np.random.default_rng(6))
    loss = fused.fit(pseudo_in, pseudo_out)
    scaled = reference.target_scaler.fit_transform(pseudo_out)
    expected = tape_fit_mse(reference.net, pseudo_in, scaled, lr=reference.lr,
                            epochs=reference.epochs, batch_size=reference.batch_size,
                            rng=reference.rng)
    assert loss == expected
    for got, want in zip(fused.net.parameters(), reference.net.parameters()):
        np.testing.assert_array_equal(got.data, want.data)


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


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_vjp_matches_finite_differences(activation):
    mlp = make_mlp(activation, seed=7)
    x_data = inputs(rows=4, seed=8)
    seed_grad = np.random.default_rng(9).normal(size=(4, 2))

    def objective():
        return float(np.sum(seed_grad * mlp.predict(x_data)))

    x = Tensor(x_data, requires_grad=True)
    mlp(x).backward(seed_grad)
    np.testing.assert_allclose(x.grad, central_difference(objective, x_data),
                               rtol=1e-6, atol=1e-8)
    for p in mlp.parameters():
        np.testing.assert_allclose(p.grad, central_difference(objective, p.data),
                                   rtol=1e-6, atol=1e-8)
