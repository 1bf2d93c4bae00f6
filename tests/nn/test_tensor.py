"""Autograd correctness: every op's gradient against finite differences."""

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, maximum, minimum, where


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn wrt array x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(op, x_data, atol=1e-5):
    x = Tensor(x_data.copy(), requires_grad=True)
    y = op(x)
    loss = y.sum() if y.size > 1 else y
    loss.backward()
    expected = numerical_grad(lambda arr: float(np.sum(op(Tensor(arr)).data)), x_data.copy())
    np.testing.assert_allclose(x.grad, expected, atol=atol)


RNG = np.random.default_rng(42)


ELEMENTWISE_OPS = [
    lambda x: x + 3.0,
    lambda x: 3.0 - x,
    lambda x: x * 2.5,
    lambda x: x / 4.0,
    lambda x: 2.0 / (x + 3.0),
    lambda x: -x,
    lambda x: x**2,
    lambda x: x**3,
    lambda x: x.tanh(),
    lambda x: x.sigmoid(),
    lambda x: x.relu(),
    lambda x: x.leaky_relu(0.1),
    lambda x: x.exp(),
    lambda x: x.abs(),
    lambda x: x.clip(-0.5, 0.5),
    lambda x: x.clip(None, 0.3),
    lambda x: x.clip(-0.2, None),
    lambda x: x.sum(),
    lambda x: x.mean(),
    lambda x: x.sum(axis=0),
    lambda x: x.mean(axis=1),
    lambda x: x.reshape(6, 2),
    lambda x: x.T,
    lambda x: x[1:, :2],
]


@pytest.mark.parametrize("op", ELEMENTWISE_OPS)
def test_elementwise_gradients(op):
    data = RNG.normal(0.0, 1.0, size=(3, 4))
    # keep away from clip/relu kinks where FD is ill-defined
    data = data + 0.01 * np.sign(data)
    check_gradient(op, data)


@pytest.mark.parametrize("op", ELEMENTWISE_OPS + [
    lambda x: maximum(x, 0.0),
    lambda x: minimum(0.0, x),
    lambda x: where(x.data > 0.0, x, 1.0),
    lambda x: x @ np.ones((4, 2)),
])
def test_float32_stays_float32(op):
    """Float32 data keeps its dtype through every op and its backward, and a
    lifted constant takes the tensor's dtype instead of promoting it."""
    data = np.random.default_rng(0).normal(0.0, 1.0, size=(3, 4)).astype(np.float32)
    x = Tensor(data, requires_grad=True)
    y = op(x)
    assert y.data.dtype == np.float32
    (y.sum() if y.size > 1 else y).backward()
    assert x.grad.dtype == np.float32


def test_float64_and_other_inputs_become_float64():
    assert Tensor([1, 2]).data.dtype == np.float64
    assert Tensor(np.ones(2, dtype=np.float16)).data.dtype == np.float64
    assert (Tensor(np.ones(2)) * np.ones(2, dtype=np.float32)).data.dtype == np.float64


def test_log_gradient():
    check_gradient(lambda x: x.log(), RNG.uniform(0.5, 2.0, size=(3, 3)))


def test_matmul_gradients():
    a_data = RNG.normal(size=(3, 4))
    b_data = RNG.normal(size=(4, 2))
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a @ b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b_data.T, atol=1e-10)
    np.testing.assert_allclose(b.grad, a_data.T @ np.ones((3, 2)), atol=1e-10)


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 4)))
    np.testing.assert_allclose(b.grad, np.full(4, 3.0))


def test_broadcast_mul_row_vector():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(1, 4)), requires_grad=True)
    (a * w).sum().backward()
    assert w.grad.shape == (1, 4)
    np.testing.assert_allclose(w.grad, a.data.sum(axis=0, keepdims=True))


def test_concatenate_routes_gradients():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    out = concatenate([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * 2.0).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))


def test_maximum_minimum_gradient_routing():
    a = Tensor([1.0, 5.0, 2.0], requires_grad=True)
    b = Tensor([2.0, 3.0, 2.0], requires_grad=True)
    maximum(a, b).sum().backward()
    np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0])  # ties go to first arg
    np.testing.assert_allclose(b.grad, [1.0, 0.0, 0.0])
    a.zero_grad()
    b.zero_grad()
    minimum(a, b).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
    np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


def test_where_selects_and_routes():
    cond = np.array([True, False, True])
    a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
    out = where(cond, a, b)
    np.testing.assert_allclose(out.data, [1.0, 20.0, 3.0])
    out.sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
    np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


def test_grad_accumulates_over_multiple_uses():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0 + x * 4.0  # dy/dx = 7
    y.backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_requires_scalar_without_seed():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(RuntimeError):
        (x * 2).backward()


def test_backward_on_non_grad_tensor_raises():
    x = Tensor(np.ones(3))
    with pytest.raises(RuntimeError):
        x.sum().backward()


def test_detach_stops_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x.detach() * 5.0
    assert not y.requires_grad


def test_deep_chain_gradient():
    x = Tensor([0.5], requires_grad=True)
    y = x
    for _ in range(50):
        y = y * 1.01 + 0.001
    y.backward()
    assert np.isfinite(x.grad[0])
    np.testing.assert_allclose(x.grad[0], 1.01**50, rtol=1e-9)


def test_diamond_graph_gradient():
    x = Tensor([3.0], requires_grad=True)
    a = x * 2.0
    b = x * 5.0
    ((a + b) * a).backward()  # f = (2x+5x)*2x = 14 x^2, f' = 28x
    np.testing.assert_allclose(x.grad, [28.0 * 3.0])


@pytest.mark.parametrize("axis", [(0, 1), (0, 2), (-1, 0)])
def test_mean_over_axis_tuple(axis):
    data = RNG.normal(size=(2, 3, 4))
    x = Tensor(data, requires_grad=True)
    out = x.mean(axis=axis)
    np.testing.assert_allclose(out.data, data.mean(axis=axis), rtol=1e-14)
    out.sum().backward()
    count = data.size // out.size
    np.testing.assert_allclose(x.grad, np.full(data.shape, 1.0 / count), rtol=1e-14)
    check_gradient(lambda t: t.mean(axis=axis), data)
