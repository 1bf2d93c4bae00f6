"""MLP training sanity: layers, the optimizer, scalers."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, Linear, StandardScaler, Tensor


def test_linear_shapes_and_param_count():
    rng = np.random.default_rng(0)
    layer = Linear(5, 3, rng=rng)
    assert layer.weight.shape == (5, 3)
    assert layer.bias.shape == (3,)
    assert sum(p.size for p in layer.parameters()) == 5 * 3 + 3


def test_mlp_parameter_collection():
    rng = np.random.default_rng(0)
    net = MLP(4, 2, (8, 8), rng=rng)
    # 3 Linear layers x (weight + bias)
    assert len(net.parameters()) == 6
    assert net.num_parameters() == (4 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)


def test_mlp_rejects_unknown_activation():
    with pytest.raises(ValueError):
        MLP(2, 1, activation="gelu", rng=np.random.default_rng(0))


def test_state_dict_roundtrip():
    rng = np.random.default_rng(0)
    net = MLP(3, 2, (4,), rng=rng)
    state = net.state_dict()
    x = np.ones((2, 3))
    before = net.predict(x)
    for p in net.parameters():
        p.data = p.data + 1.0
    assert not np.allclose(net.predict(x), before)
    net.load_state_dict(state)
    np.testing.assert_allclose(net.predict(x), before)


def test_mlp_fits_linear_function_with_adam():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(256, 3))
    W_true = np.array([[1.0], [-2.0], [0.5]])
    y = X @ W_true + 0.3
    net = MLP(3, 1, (16,), rng=rng)
    optimizer = Adam(net.parameters(), lr=1e-2)
    for _ in range(500):
        prediction = net(Tensor(X))
        diff = prediction.data - y
        optimizer.zero_grad()
        prediction.backward(2.0 * diff / diff.size)  # d mean(diff^2) / d prediction
        optimizer.step()
    assert np.mean(diff**2) < 1e-3


def test_standard_scaler_roundtrip_and_degenerate():
    data = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    scaler = StandardScaler().fit(data)
    out = scaler.transform(data)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out[:, 1], 0.0)  # constant column -> zeros
    np.testing.assert_allclose(scaler.inverse_transform(out), data)


def test_scaler_unfitted_raises():
    with pytest.raises(RuntimeError):
        StandardScaler().transform(np.ones((2, 2)))


def test_adam_skips_parameter_without_grad():
    """A parameter with ``grad is None`` keeps its value and its moments."""
    lr, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = Tensor(np.array([[0.5, 3.0]]), requires_grad=True)
    optimizer = Adam([a, b], lr=lr, betas=(beta1, beta2), eps=eps)
    b_before = b.data.copy()
    a.grad = np.array([0.3, -0.7])
    optimizer.step()
    np.testing.assert_array_equal(b.data, b_before)
    assert not np.array_equal(a.data, [1.0, -2.0])

    # b's first gradient arrives at step 2: its moments must start from zero.
    grad = np.array([[0.2, -0.4]])
    a.grad = np.array([0.1, 0.1])
    b.grad = grad
    optimizer.step()
    m_hat = ((1.0 - beta1) * grad) / (1.0 - beta1**2)
    v_hat = ((1.0 - beta2) * grad**2) / (1.0 - beta2**2)
    np.testing.assert_array_equal(b.data, b_before - lr * m_hat / (np.sqrt(v_hat) + eps))
