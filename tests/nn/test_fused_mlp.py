"""The fused MLP kernel against an unfused reference and against finite differences.

``MLP`` runs its Linear+activation stack as one fused forward pass and one
hand-written VJP.  The reference below recomputes the same network one layer
at a time in plain NumPy, with its own copy of each activation and no graph
machinery: ``reference_forward`` records each layer's values on a plain list
(the per-layer tape the ``*_matches_tape`` tests name) and
``reference_backward`` replays it in reverse.  The fused kernel must
reproduce it bit for bit.  Adding an
activation means adding it to ``REFERENCE_ACTIVATIONS`` below.
"""

import numpy as np
import pytest

from repro.core import Critic, generate_pseudo_samples
from repro.nn import MLP, Adam, Tensor


def make_mlp(activation, seed=0, in_features=3, out_features=2, hidden=(7, 5)):
    return MLP(in_features, out_features, hidden, activation=activation,
               output_activation=activation, rng=np.random.default_rng(seed))


def inputs(rows=11, features=3, seed=1):
    return np.random.default_rng(seed).normal(0.0, 1.5, size=(rows, features))


#: name -> (apply(z), vjp(grad, z, a)), written independently of ``repro.nn``
REFERENCE_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda g, z, a: g * (z > 0.0)),
    "leaky_relu": (lambda z: np.where(z > 0.0, z, 0.01 * z),
                   lambda g, z, a: np.where(z > 0.0, g, g * 0.01)),
    "tanh": (np.tanh, lambda g, z, a: g * (1.0 - a**2)),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0))),
                lambda g, z, a: g * a * (1.0 - a)),
    "identity": (lambda z: z, lambda g, z, a: g),
}
ACTIVATIONS = list(REFERENCE_ACTIVATIONS)


def reference_forward(x, weights, activations):
    """Each layer's ``(input, pre-activation, activation)``, one layer at a time."""
    layers = []
    for W, b, name in zip(weights[0::2], weights[1::2], activations):
        z = x @ W + b
        layers.append((x, z, REFERENCE_ACTIVATIONS[name][0](z)))
        x = layers[-1][2]
    return layers


def reference_backward(layers, weights, activations, grad):
    """``grad`` w.r.t. the output -> (input gradient, ``[dW0, db0, dW1, ...]``)."""
    grads = [None] * len(weights)
    for i in reversed(range(len(layers))):
        x, z, a = layers[i]
        grad = REFERENCE_ACTIVATIONS[activations[i]][1](grad, z, a)
        grads[2 * i], grads[2 * i + 1] = x.T @ grad, grad.sum(axis=0)
        grad = grad @ weights[2 * i].T
    return grad, grads


def reference_fit_mse(params, activations, x, y, *, lr, epochs, batch_size, rng):
    """``fit_mse``'s float32 training, per layer; ``params`` are left float32."""
    for p in params:
        p.data = p.data.astype(np.float32)
    x, y = np.asarray(x, dtype=np.float32), np.asarray(y, dtype=np.float32)
    optimizer = Adam(params, lr=lr)
    batch = min(batch_size, len(x))
    last = np.inf
    for _ in range(epochs):
        order = rng.permutation(len(x))
        losses = []
        for start in range(0, len(x), batch):
            rows = order[start:start + batch]
            weights = [p.data for p in params]
            layers = reference_forward(x[rows], weights, activations)
            diff = layers[-1][2] - y[rows]
            scale = 1.0 / diff.size
            losses.append(float((diff * diff).sum() * scale))
            _, grads = reference_backward(layers, weights, activations,
                                          scale * diff + scale * diff)
            for p, g in zip(params, grads):
                p.grad = g
            optimizer.step()
        last = float(np.mean(losses))
    return last


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_matches_tape(activation):
    mlp = make_mlp(activation)
    x = inputs()
    weights = [p.data for p in mlp.parameters()]
    reference = reference_forward(x, weights, [activation] * 3)[-1][2]
    np.testing.assert_array_equal(mlp(Tensor(x)).data, reference)
    np.testing.assert_array_equal(mlp.predict(x), reference)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_vjp_matches_tape(activation):
    mlp = make_mlp(activation)
    x_data = inputs()
    seed_grad = np.random.default_rng(2).normal(size=(len(x_data), 2))
    x = Tensor(x_data, requires_grad=True)
    mlp(x).backward(seed_grad)
    weights = [p.data for p in mlp.parameters()]
    layers = reference_forward(x_data, weights, [activation] * 3)
    grad_x, grads = reference_backward(layers, weights, [activation] * 3, seed_grad)
    np.testing.assert_array_equal(x.grad, grad_x)
    assert len(grads) == len(mlp.parameters())
    for p, expected in zip(mlp.parameters(), grads):
        np.testing.assert_array_equal(p.grad, expected)


def test_frozen_parameters_get_no_gradient():
    mlp = make_mlp("relu")
    params = mlp.parameters()
    for p in params:
        p.requires_grad = False
    x = Tensor(inputs(), requires_grad=True)
    mlp(x).backward(np.ones((len(x.data), 2)))
    assert x.grad is not None
    assert all(p.grad is None for p in params)


def test_one_tape_node_per_call():
    mlp = make_mlp("tanh")
    x = Tensor(inputs(), requires_grad=True)
    out = mlp(x)
    assert out._parents[0] is x
    assert list(out._parents[1:]) == mlp.parameters()


#: (activation, dtype of the training arrays, rows); batches are 16 rows, so
#: 50 rows end on a 2-row minibatch and 9 rows are one short minibatch.
FIT_CASES = [pytest.param(name, np.float64, 50, id=name) for name in ACTIVATIONS] + [
    pytest.param("relu", np.float32, 50, id="relu-float32"),
    pytest.param("tanh", np.float32, 50, id="tanh-float32"),
    pytest.param("relu", np.float64, 9, id="relu-one-short-batch"),
    pytest.param("sigmoid", np.float32, 9, id="sigmoid-float32-one-short-batch"),
]


@pytest.mark.parametrize("activation, dtype, rows", FIT_CASES)
def test_fit_mse_matches_tape_training(activation, dtype, rows):
    # float32 arrays reach fit_mse uncopied, so they must come back unchanged.
    x = inputs(rows=rows).astype(dtype)
    y = np.random.default_rng(3).normal(size=(rows, 2)).astype(dtype)
    x_before, y_before = x.copy(), y.copy()
    fused, reference = make_mlp(activation), make_mlp(activation)
    kwargs = dict(lr=1e-2, epochs=3, batch_size=16)
    loss = fused.fit_mse(x, y, rng=np.random.default_rng(4), **kwargs)
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(y, y_before)
    expected = reference_fit_mse(reference.parameters(), [activation] * 3, x, y,
                                 rng=np.random.default_rng(4), **kwargs)
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
    expected = reference_fit_mse(reference.net.parameters(), ["relu", "relu", "identity"],
                                 pseudo_in, scaled, lr=reference.lr,
                                 epochs=reference.epochs,
                                 batch_size=reference.batch_size, rng=reference.rng)
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
