"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of :mod:`repro.nn`, the small deep-learning
substrate used by DNN-Opt in place of PyTorch.  A :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` on a scalar result propagates gradients back to every
tensor created with ``requires_grad=True``.

Only the operations needed by the paper's networks are implemented: affine
maps, the usual activations, element-wise arithmetic with broadcasting,
clipping (for the FoM of Eq. 4), concatenation (for the critic's ``(x, dx)``
input) and reductions.  Gradients for clipping use the standard subgradient
convention (zero outside the active range).

Data is float64, except that float32 data stays float32 (the precision the
critic trains in), and a constant lifted into an op takes the dtype of the
tensor it meets, so a float32 graph computes in float32 throughout.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Tensor", "concatenate", "maximum", "minimum", "where"]


def _as_array(value) -> np.ndarray:
    """``value`` as a float array: float32 data stays float32, the rest becomes float64."""
    array = np.asarray(value)
    if array.dtype == np.float32:
        return array
    return array.astype(np.float64, copy=False)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that broadcasting added.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # make numpy defer to Tensor for mixed ops

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value, like: "Tensor | None" = None) -> "Tensor":
        """``value`` as a Tensor; a constant takes ``like``'s dtype, so lifting
        it never changes the precision an op runs in."""
        if isinstance(value, Tensor):
            return value
        if like is None:
            return Tensor(value)
        return Tensor(np.asarray(value, dtype=like.data.dtype))

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def backward(self, grad=None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to 1.0 and must match this tensor's shape; for
        non-scalar tensors an explicit seed gradient is required.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the dynamic graph.  id() below is pure
        # within-process node identity for the visited set / grad table; the
        # traversal order is fixed by the stack discipline, so nothing
        # address-dependent reaches gradients.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:  # lint: disable=RP01
                continue
            seen.add(id(node))  # lint: disable=RP01
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:  # lint: disable=RP01
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}  # lint: disable=RP01
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)  # lint: disable=RP01
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            for parent, pgrad in node._backward(node_grad):
                if not parent.requires_grad:
                    continue
                key = id(parent)  # lint: disable=RP01
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._lift(other, self)
        data = self.data + other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad, self.shape)),
                (other, _unbroadcast(grad, other.shape)),
            )

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other, self)
        data = self.data - other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad, self.shape)),
                (other, _unbroadcast(-grad, other.shape)),
            )

        return self._make(data, (self, other), backward)

    def __rsub__(self, other):
        return self._lift(other, self).__sub__(self)

    def __mul__(self, other):
        other = self._lift(other, self)
        data = self.data * other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad * other.data, self.shape)),
                (other, _unbroadcast(grad * self.data, other.shape)),
            )

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other, self)
        data = self.data / other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad / other.data, self.shape)),
                (other, _unbroadcast(-grad * self.data / other.data**2, other.shape)),
            )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._lift(other, self).__truediv__(self)

    def __neg__(self):
        def backward(grad):
            return ((self, -grad),)

        return self._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float):
        exponent = float(exponent)
        data = self.data**exponent

        def backward(grad):
            return ((self, grad * exponent * self.data ** (exponent - 1)),)

        return self._make(data, (self,), backward)

    def __matmul__(self, other):
        other = self._lift(other, self)
        data = self.data @ other.data

        def backward(grad):
            return (
                (self, grad @ other.data.T),
                (other, self.data.T @ grad),
            )

        return self._make(data, (self, other), backward)

    def __getitem__(self, index):
        data = self.data[index]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return ((self, full),)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            return ((self, grad.reshape(original)),)

        return self._make(data, (self,), backward)

    @property
    def T(self):
        data = self.data.T

        def backward(grad):
            return ((self, grad.T),)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((self, np.broadcast_to(g, self.shape).copy()),)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            count = math.prod(self.shape[a] for a in np.atleast_1d(axis))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Element-wise nonlinearities
    # ------------------------------------------------------------------
    def relu(self):
        data = np.maximum(self.data, 0.0)

        def backward(grad):
            return ((self, grad * (self.data > 0.0)),)

        return self._make(data, (self,), backward)

    def leaky_relu(self, slope: float = 0.01):
        data = np.where(self.data > 0.0, self.data, slope * self.data)

        def backward(grad):
            return ((self, np.where(self.data > 0.0, grad, grad * slope)),)

        return self._make(data, (self,), backward)

    def tanh(self):
        data = np.tanh(self.data)

        def backward(grad):
            return ((self, grad * (1.0 - data**2)),)

        return self._make(data, (self,), backward)

    def sigmoid(self):
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad):
            return ((self, grad * data * (1.0 - data)),)

        return self._make(data, (self,), backward)

    def exp(self):
        data = np.exp(np.clip(self.data, -60.0, 60.0))

        def backward(grad):
            return ((self, grad * data),)

        return self._make(data, (self,), backward)

    def log(self):
        data = np.log(self.data)

        def backward(grad):
            return ((self, grad / self.data),)

        return self._make(data, (self,), backward)

    def abs(self):
        data = np.abs(self.data)

        def backward(grad):
            return ((self, grad * np.sign(self.data)),)

        return self._make(data, (self,), backward)

    def clip(self, low: float | None, high: float | None):
        """Element-wise clip with pass-through gradient inside the range."""
        data = np.clip(self.data, low, high)

        def backward(grad):
            mask = np.ones_like(self.data)
            if low is not None:
                mask = mask * (self.data >= low)
            if high is not None:
                mask = mask * (self.data <= high)
            return ((self, grad * mask),)

        return self._make(data, (self,), backward)


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def _lift_pair(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a constant takes the other operand's dtype."""
    if isinstance(a, Tensor):
        return a, Tensor._lift(b, a)
    b = Tensor._lift(b)
    return Tensor._lift(a, b), b


def concatenate(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        pieces = np.split(grad, splits, axis=axis)
        return tuple((t, g) for t, g in zip(tensors, pieces))

    out = Tensor(data)
    if any(t.requires_grad for t in tensors):
        out.requires_grad = True
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def maximum(a, b) -> Tensor:
    """Element-wise maximum; ties route gradient to the first argument."""
    a, b = _lift_pair(a, b)
    data = np.maximum(a.data, b.data)
    mask = a.data >= b.data

    def backward(grad):
        return (
            (a, _unbroadcast(grad * mask, a.shape)),
            (b, _unbroadcast(grad * ~mask, b.shape)),
        )

    out = Tensor(data)
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._parents = (a, b)
        out._backward = backward
    return out


def minimum(a, b) -> Tensor:
    """Element-wise minimum; ties route gradient to the first argument."""
    a, b = _lift_pair(a, b)
    data = np.minimum(a.data, b.data)
    mask = a.data <= b.data

    def backward(grad):
        return (
            (a, _unbroadcast(grad * mask, a.shape)),
            (b, _unbroadcast(grad * ~mask, b.shape)),
        )

    out = Tensor(data)
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._parents = (a, b)
        out._backward = backward
    return out


def where(condition: np.ndarray, a, b) -> Tensor:
    """Select ``a`` where ``condition`` holds, else ``b`` (condition is constant)."""
    a, b = _lift_pair(a, b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward(grad):
        return (
            (a, _unbroadcast(grad * condition, a.shape)),
            (b, _unbroadcast(grad * ~condition, b.shape)),
        )

    out = Tensor(data)
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._parents = (a, b)
        out._backward = backward
    return out
