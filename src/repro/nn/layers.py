"""Neural-network layers: the MLP the paper's actor and critic are built from.

This module provides the :class:`Module` parameter container, the
:class:`Linear` parameter holder, the usual activations and the :class:`MLP`
both networks are built from.

:class:`MLP` runs as one fused kernel: a forward pass that keeps every
layer's pre-activation and activation, and a hand-written vector-Jacobian
product (VJP) for the whole Linear+activation stack.  Each activation
carries its own ``apply``/``vjp`` pair, and every piece follows the dtype of
the arrays it receives: :meth:`MLP.fit_mse` trains in float32; everything
else runs in float64.
"""

from __future__ import annotations

import numpy as np

from .optim import Adam
from .tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "MLP",
]


class Module:
    """Base class: tracks parameters and sub-modules for optimizers."""

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> list[np.ndarray]:
        """Flat list of parameter arrays (copies), in parameter order."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(f"state has {len(state)} arrays, model has {len(params)} parameters")
        for param, array in zip(params, state):
            if param.data.shape != array.shape:
                raise ValueError(f"shape mismatch: {param.data.shape} vs {array.shape}")
            param.data = array.copy()


class Linear(Module):
    """Parameters of the affine layer ``y = x W + b``, He/Xavier-initialized."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator,
                 init: str = "he"):
        if init == "he":
            scale = np.sqrt(2.0 / in_features)
        elif init == "xavier":
            scale = np.sqrt(2.0 / (in_features + out_features))
        elif init == "small":
            scale = 1e-3
        else:
            raise ValueError(f"unknown init scheme: {init!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(rng.normal(0.0, scale, size=(in_features, out_features)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)


# Each activation's ``apply(z)`` and ``vjp(grad, z, a)`` (``a = apply(z)``)
# compute in the dtype of the arrays they receive (Python-float constants
# never promote).


class ReLU:
    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def vjp(self, grad: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return grad * (z > 0.0)


class LeakyReLU:
    def __init__(self, slope: float = 0.01):
        self.slope = slope

    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.where(z > 0.0, z, self.slope * z)

    def vjp(self, grad: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return np.where(z > 0.0, grad, grad * self.slope)


class Tanh:
    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def vjp(self, grad: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return grad * (1.0 - a**2)


class Sigmoid:
    def apply(self, z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    def vjp(self, grad: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return grad * a * (1.0 - a)


class Identity:
    def apply(self, z: np.ndarray) -> np.ndarray:
        return z

    def vjp(self, grad: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return grad


_ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "identity": Identity,
}


class MLP(Module):
    """Multi-layer perceptron ``in -> hidden... -> out``.

    ``layers`` holds the ``Linear`` layers and activations in order; the
    ``Linear`` parameters are the MLP's.  Calling the MLP on a
    :class:`Tensor` records a single graph node whose backward is the fused
    VJP, :meth:`predict` is a plain NumPy forward pass, and :meth:`fit_mse`
    trains without building a graph.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    hidden:
        Sequence of hidden-layer widths.
    activation:
        Name of the hidden activation (``relu``, ``tanh``, ...).
    output_activation:
        Name of the output activation (default ``identity``).
    rng:
        Random generator for weight initialization (required so optimization
        runs are reproducible).
    """

    def __init__(self, in_features: int, out_features: int, hidden: tuple[int, ...] = (64, 64),
                 *, activation: str = "relu", output_activation: str = "identity",
                 rng: np.random.Generator):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation: {activation!r}")
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation: {output_activation!r}")
        init = "he" if activation in ("relu", "leaky_relu") else "xavier"
        widths = [in_features, *hidden]
        layers: list = []
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            layers.append(Linear(w_in, w_out, rng=rng, init=init))
            layers.append(_ACTIVATIONS[activation]())
        layers.append(Linear(widths[-1], out_features, rng=rng, init="xavier"))
        layers.append(_ACTIVATIONS[output_activation]())
        self.layers = layers
        self.in_features = in_features
        self.out_features = out_features

    def _weights(self) -> list[Tensor]:
        """``[W0, b0, W1, b1, ...]`` whether or not they currently require grad."""
        return [p for linear in self.layers[0::2] for p in (linear.weight, linear.bias)]

    def _forward(self, x: np.ndarray,
                 weights: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Fused forward pass; returns each layer's ``(pre-activation, activation)``."""
        cache = []
        a = x
        for W, b, act in zip(weights[0::2], weights[1::2], self.layers[1::2]):
            z = a @ W
            z += b
            a = act.apply(z)
            cache.append((z, a))
        return cache

    def _vjp(self, x: np.ndarray, cache: list[tuple[np.ndarray, np.ndarray]],
             weights: list[np.ndarray], grad: np.ndarray, need: list[bool],
             need_input: bool, out: list[np.ndarray] | None = None,
             ) -> tuple[np.ndarray | None, list[np.ndarray | None]]:
        """Fused backward pass: ``grad`` w.r.t. the output -> (input, parameter) grads.

        Only the parameter gradients flagged in ``need`` are formed; the
        input gradient is ``None`` unless ``need_input``.  With ``out`` (one
        array per parameter, shaped like it), each parameter gradient is
        written into its array.
        """
        out = out or [None] * len(weights)
        grads: list[np.ndarray | None] = [None] * len(weights)
        activations = self.layers[1::2]
        for i in reversed(range(len(cache))):
            z, a = cache[i]
            grad = activations[i].vjp(grad, z, a)
            if need[2 * i]:
                grads[2 * i] = np.matmul((cache[i - 1][1] if i else x).T, grad,
                                         out=out[2 * i])
            if need[2 * i + 1]:
                grads[2 * i + 1] = np.sum(grad, axis=0, out=out[2 * i + 1])
            if i == 0 and not need_input:
                return None, grads
            grad = grad @ weights[2 * i].T
        return grad, grads

    def __call__(self, x: Tensor) -> Tensor:
        x = Tensor._lift(x)
        params = self._weights()
        weights = [p.data for p in params]
        cache = self._forward(x.data, weights)

        def backward(grad):
            grad_x, grads = self._vjp(x.data, cache, weights, grad,
                                      [p.requires_grad for p in params], x.requires_grad)
            pairs = [(p, g) for p, g in zip(params, grads) if g is not None]
            return pairs if grad_x is None else [(x, grad_x), *pairs]

        return x._make(cache[-1][1], (x, *params), backward)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on a raw array without building a graph node."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self._forward(x, [p.data for p in self._weights()])[-1][1]

    def fit_mse(self, inputs: np.ndarray, targets: np.ndarray, *, lr: float, epochs: int,
                batch_size: int, rng: np.random.Generator) -> float:
        """Minibatch Adam on the mean squared error, in float32, without a graph.

        Inputs, targets and the flat parameter vector are cast to float32
        once, and the weights are views into that vector, which
        :meth:`Adam.step_flat` updates in place; the parameters are written
        back as float64 (an exact upcast) at the end.  Each epoch visits the
        rows in ``rng.permutation`` order, ``batch_size`` at a time.  Per
        minibatch: its rows are gathered into fixed buffers, then fused
        forward, MSE gradient, fused VJP into one flat gradient buffer and
        one Adam step over all parameters, with activations kept for that
        minibatch only.  Returns the mean minibatch loss of the last epoch,
        the only epoch whose loss is computed.
        """
        inputs = np.asarray(inputs, dtype=np.float32)
        targets = np.asarray(targets, dtype=np.float32)
        params = self._weights()
        theta = np.concatenate([p.data.ravel() for p in params]).astype(np.float32)
        grad = np.empty_like(theta)
        optimizer = Adam([Tensor(theta)], lr=lr)  # moments in float32, like theta
        weights, grads, start = [], [], 0
        for p in params:
            weights.append(theta[start:start + p.size].reshape(p.shape))
            grads.append(grad[start:start + p.size].reshape(p.shape))
            start += p.size
        need = [True] * len(params)
        n = len(inputs)
        batch = min(batch_size, n)
        x_rows = np.empty((batch, inputs.shape[1]), dtype=np.float32)
        y_rows = np.empty((batch, targets.shape[1]), dtype=np.float32)
        diff_rows = np.empty_like(y_rows)
        losses = []
        for epoch in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start:start + batch]
                k = len(rows)
                # The rows are in range; mode="clip" lets take write into
                # the buffer directly (mode="raise" buffers its output).
                x = np.take(inputs, rows, axis=0, out=x_rows[:k], mode="clip")
                y = np.take(targets, rows, axis=0, out=y_rows[:k], mode="clip")
                cache = self._forward(x, weights)
                diff = np.subtract(cache[-1][1], y, out=diff_rows[:k])
                scale = 1.0 / diff.size
                if epoch == epochs - 1:
                    losses.append(float((diff * diff).sum() * scale))
                # d(mean(diff * diff)) / d(diff) = 2 * scale * diff.
                diff *= scale
                diff += diff
                self._vjp(x, cache, weights, diff, need, False, out=grads)
                optimizer.step_flat(theta, grad)
        for param, weight in zip(params, weights):
            param.data = weight.astype(np.float64)
        return float(np.mean(losses)) if losses else np.inf
