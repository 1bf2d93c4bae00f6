"""Actor network — proposes design changes, trained through the critic (Eq. 5-6).

The actor ``mu(x) -> dx`` is an MLP with a tanh output scaled by the span of
the elite-restricted search region, so a saturated output can move a design
across the whole region but never (by construction) far beyond it.  Training
minimizes the FoM of the critic's prediction at the displaced design plus a
large quadratic penalty on leaving the restricted region:

    L = mean_k g[Q(x_k, mu(x_k))] + || lambda * viol_k ||^2        (Eq. 5)
    viol = max(0, lb - (x + dx)) + max(0, (x + dx) - ub)           (Eq. 6)

The loss is one graph node (:meth:`Actor._loss`) on top of the actor's fused
MLP node.  Its backward is written by hand: the critic's weights are
constants, and the gradient flows through the critic's *inputs* (via the
critic's fused VJP) into the actor parameters, exactly as in DDPG.
"""

from __future__ import annotations

import numpy as np

from ..nn import MLP, Adam, Tensor
from .critic import Critic

__all__ = ["Actor"]


class Actor:
    """Trainable proposal network ``mu(x) -> dx`` over normalized designs."""

    def __init__(self, dim: int, *, hidden: tuple[int, ...] = (64, 64), lr: float = 1e-3,
                 epochs: int = 30, jitter_copies: int = 4,
                 rng: np.random.Generator):
        self.dim = int(dim)
        self.rng = rng
        self.net = MLP(self.dim, self.dim, hidden, activation="relu",
                       output_activation="tanh", rng=rng)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.jitter_copies = int(jitter_copies)
        self.step_scale = np.ones(self.dim)

    def fit(self, critic: Critic, anchors: np.ndarray, lb_rest: np.ndarray,
            ub_rest: np.ndarray, *, w0: float, weights: np.ndarray,
            lam: float = 100.0) -> float:
        """Train against the frozen ``critic``; returns the final loss value.

        ``anchors`` are the elite designs (normalized coordinates); the
        training batch augments them with jittered copies inside the
        restricted region so the actor generalizes over the whole region
        rather than memorizing ``n_elite`` points.
        """
        anchors = np.atleast_2d(anchors)
        lb_rest = np.asarray(lb_rest, dtype=np.float64)
        ub_rest = np.asarray(ub_rest, dtype=np.float64)
        span = ub_rest - lb_rest
        self.step_scale = np.maximum(span, 1e-6)

        batch = [anchors]
        for _ in range(self.jitter_copies):
            jitter = self.rng.normal(0.0, 0.15, size=anchors.shape) * span
            batch.append(np.clip(anchors + jitter, 0.0, 1.0))
        x_train = np.vstack(batch)

        optimizer = Adam(self.net.parameters(), lr=self.lr)
        x_const = Tensor(x_train)
        last = np.inf
        for _ in range(self.epochs):
            loss = self._loss(self.net(x_const), x_train, critic, lb_rest, ub_rest,
                              w0, weights, lam)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            last = loss.item()
        return float(last)

    def _loss(self, out: Tensor, x: np.ndarray, critic: Critic, lb: np.ndarray,
              ub: np.ndarray, w0: float, weights: np.ndarray, lam: float) -> Tensor:
        """Eq. 5-6 loss of the actor output ``out`` at designs ``x``, as one graph node.

        Forward: ``dx = out * step_scale``, the critic's un-scaled prediction
        at ``[x, dx]``, the clipped FoM (Eq. 4) and the squared ``max(0, .)``
        penalty, averaged over rows.  The backward is hand-written, with the
        clip's subgradient (a constraint term outside ``0 <= wi fi <= 1``
        passes no gradient) and the critic's weights held constant.
        """
        critic._check_trained()
        n, d = x.shape
        dx = out.data * self.step_scale
        x_dx = np.concatenate([x, dx], axis=1)
        cw = [p.data for p in critic.net._weights()]
        cache = critic.net._forward(x_dx, cw)
        scaler = critic.target_scaler
        pred = cache[-1][1] * scaler.scale_ + scaler.mean_
        weights_row = np.asarray(weights, dtype=np.float64).reshape(1, -1)
        wf = pred[:, 1:] * weights_row
        g = pred[:, 0:1] * w0 + np.clip(wf, 0.0, 1.0).sum(axis=1, keepdims=True)
        moved = x + dx
        below = lb.reshape(1, -1) - moved
        above = moved - ub.reshape(1, -1)
        scaled_viol = (np.maximum(below, 0.0) + np.maximum(above, 0.0)) * lam
        penalty = (scaled_viol ** 2.0).sum(axis=1)
        loss = (g[:, 0] + penalty).sum() * (1.0 / n)

        def backward(grad):
            g_row = grad * (1.0 / n)  # of each row's FoM + penalty
            # Penalty: d/d(moved) of sum((lam * viol)^2), through both max(0, .).
            g_viol = g_row * 2.0 * scaled_viol * lam
            g_moved = g_viol * (above >= 0.0) - g_viol * (below >= 0.0)
            # FoM: the objective term, and each constraint term inside its clip band.
            g_pred = np.zeros_like(pred)
            g_pred[:, 0:1] += g_row * w0
            g_pred[:, 1:] += g_row * ((wf >= 0.0) & (wf <= 1.0)) * weights_row
            g_x_dx, _ = critic.net._vjp(x_dx, cache, cw, g_pred * scaler.scale_,
                                        [False] * len(cw), True)
            return ((out, (g_x_dx[:, d:] + g_moved) * self.step_scale),)

        return out._make(loss, (out,), backward)

    def propose(self, x: np.ndarray) -> np.ndarray:
        """Proposed displacement ``dx`` for each design row of ``x``."""
        out = self.net.predict(np.atleast_2d(x))
        return out * self.step_scale
