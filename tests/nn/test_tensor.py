"""The graph core: nodes built with ``Tensor._make`` and ``Tensor.backward``."""

import numpy as np
import pytest

from repro.nn import Tensor


def scale(x, c):
    """Node ``c * x``."""
    return x._make(x.data * c, (x,), lambda grad: ((x, grad * c),))


def add(a, b):
    """Node ``a + b`` (same shapes)."""
    return a._make(a.data + b.data, (a, b), lambda grad: ((a, grad), (b, grad)))


def mul(a, b):
    """Node ``a * b`` (same shapes)."""
    return a._make(a.data * b.data, (a, b),
                   lambda grad: ((a, grad * b.data), (b, grad * a.data)))


def test_float64_and_other_inputs_become_float64():
    assert Tensor([1, 2]).data.dtype == np.float64
    assert Tensor(np.ones(2, dtype=np.float16)).data.dtype == np.float64
    assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32


def test_node_without_grad_parents_is_constant():
    x = Tensor(np.ones(3))
    y = scale(x, 2.0)
    assert not y.requires_grad
    assert y._parents == ()


def test_grad_accumulates_over_multiple_uses():
    x = Tensor([2.0], requires_grad=True)
    y = add(scale(x, 3.0), scale(x, 4.0))  # dy/dx = 7
    y.backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_requires_scalar_without_seed():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = scale(x, 2.0)
    with pytest.raises(RuntimeError):
        y.backward()
    y.backward(np.ones((2, 2)))
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))


def test_backward_on_non_grad_tensor_raises():
    x = Tensor(np.ones(3))
    with pytest.raises(RuntimeError):
        scale(x, 2.0).backward(np.ones(3))


def test_deep_chain_gradient():
    x = Tensor([0.5], requires_grad=True)
    y = x
    for _ in range(50):
        y = scale(y, 1.01)
    y.backward()
    np.testing.assert_allclose(x.grad[0], 1.01**50, rtol=1e-9)


def test_diamond_graph_gradient():
    x = Tensor([3.0], requires_grad=True)
    a = scale(x, 2.0)
    b = scale(x, 5.0)
    mul(add(a, b), a).backward()  # f = (2x+5x)*2x = 14 x^2, f' = 28x
    np.testing.assert_allclose(x.grad, [28.0 * 3.0])
