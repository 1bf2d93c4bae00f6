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
    :meth:`_update`, so the arithmetic is the same.  The buffers take the
    parameters' dtype and the hyper-parameters are Python floats, so float32
    parameters are updated in float32 throughout.
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
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._t += 1
        for param, segment in zip(self.params, self.segments):
            if param.grad is None:
                continue
            theta = self._update(param.data.ravel(), param.grad.ravel(), segment)
            param.data = theta.reshape(param.shape)

    def step_flat(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One step for all parameters, flattened and concatenated in order.

        Returns the updated flat values; the parameters themselves are not
        touched.
        """
        self._t += 1
        return self._update(theta, grad, slice(None))

    def _update(self, theta: np.ndarray, grad: np.ndarray, segment: slice) -> np.ndarray:
        m = self._m[segment]
        v = self._v[segment]
        if self.weight_decay:
            grad = grad + self.weight_decay * theta
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / (1.0 - self.beta1**self._t)
        v_hat = v / (1.0 - self.beta2**self._t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
