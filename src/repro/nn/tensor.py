"""Parameter holder and reverse-mode graph core for :mod:`repro.nn`.

A :class:`Tensor` wraps a ``numpy.ndarray``: it holds a network parameter
(with its ``.grad``) or the output of a fused primitive.  There is no per-op
arithmetic: a primitive computes its value in NumPy and records itself with
:meth:`Tensor._make`, passing a hand-written backward that maps the output
gradient to ``(parent, gradient)`` pairs.  The fused :class:`~repro.nn.MLP`
and the actor's Eq. 5-6 loss are the two primitives.  Calling
:meth:`Tensor.backward` on a scalar result walks the recorded nodes in
reverse topological order and accumulates gradients into every leaf created
with ``requires_grad=True``.

Data is float64, except that float32 data stays float32 (the precision the
critic trains in).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor"]


def _as_array(value) -> np.ndarray:
    """``value`` as a float array: float32 data stays float32, the rest becomes float64."""
    array = np.asarray(value)
    if array.dtype == np.float32:
        return array
    return array.astype(np.float64, copy=False)


class Tensor:
    """A NumPy array that can carry a gradient through fused graph nodes."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    @staticmethod
    def _lift(value) -> "Tensor":
        """``value`` as a Tensor (a Tensor is returned as is)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward):
        """A node with value ``data``; ``backward(grad)`` yields ``(parent, grad)`` pairs.

        The node joins the graph only if some parent requires grad.
        """
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
