"""The Adam optimizer for :mod:`repro.nn` parameters."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction.

    The first/second-moment state lives in two flat buffers laid out in
    parameter order.  :meth:`step` updates each parameter that has a
    ``.grad`` against its segment of the buffers (a parameter without one
    keeps its value and moments); :meth:`step_flat` updates every parameter
    at once from flattened values and gradients.  Both go through
    :meth:`_update`, which writes the new values over the old ones and keeps
    its intermediates in two preallocated buffers, so a step allocates
    nothing.  The buffers take the parameters' dtype and the
    hyper-parameters are Python floats, so float32 parameters are updated in
    float32 throughout.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        sizes = [p.size for p in self.params]
        ends = np.cumsum(sizes, dtype=int)
        #: each parameter's slice of the flat buffers (and of ``step_flat``'s vectors)
        self.segments = [slice(end - size, end) for size, end in zip(sizes, ends)]
        dtype = np.result_type(*(p.data for p in self.params)) if self.params else np.float64
        self._m = np.zeros(sum(sizes), dtype=dtype)
        self._v = np.zeros_like(self._m)
        self._step = np.empty_like(self._m)
        self._scratch = np.empty_like(self._m)
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """One step for each parameter with a ``.grad``, in place where its data is contiguous."""
        self._t += 1
        for param, segment in zip(self.params, self.segments):
            if param.grad is None:
                continue
            theta = param.data.reshape(-1)
            self._update(theta, param.grad.reshape(-1), segment)
            param.data = theta.reshape(param.shape)

    def step_flat(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """One step for all parameters, flattened and concatenated in order.

        ``theta`` (contiguous) is updated in place; the parameters
        themselves are not touched.
        """
        self._t += 1
        self._update(theta, grad, slice(None))

    def _update(self, theta: np.ndarray, grad: np.ndarray, segment: slice) -> None:
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), one ufunc per operation
        # of that expression, in its order, into the preallocated buffers.
        m, v = self._m[segment], self._v[segment]
        step, scratch = self._step[segment], self._scratch[segment]
        if self.weight_decay:
            grad = np.add(grad, np.multiply(theta, self.weight_decay, out=scratch), out=scratch)
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=step)
        v *= self.beta2
        v += np.multiply(np.square(grad, out=step), 1.0 - self.beta2, out=step)
        np.divide(m, 1.0 - self.beta1**self._t, out=step)
        step *= self.lr
        np.divide(v, 1.0 - self.beta2**self._t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        step /= scratch
        theta -= step
