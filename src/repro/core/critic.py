"""Critic network — the simulator proxy Q(x, dx) of the paper (Eq. 3).

The critic is an MLP mapping the 2d-dimensional ``[x, dx]`` input to the
``m+1`` normalized performance predictions.  Targets are z-scored before
training (heterogeneous specs would otherwise dominate the joint MSE) and
un-scaled on prediction; the actor's training loss applies the same affine
un-scaling (and its Jacobian) so FoM gradients are exact.
"""

from __future__ import annotations

import numpy as np

from ..nn import MLP, StandardScaler

__all__ = ["Critic"]


class Critic:
    """Trainable simulator proxy ``Q(x, dx) -> [f0n, f1n, ..., fmn]``."""

    def __init__(self, dim: int, num_outputs: int, *, hidden: tuple[int, ...] = (64, 64),
                 lr: float = 1e-3, epochs: int = 20, batch_size: int = 128,
                 rng: np.random.Generator):
        self.dim = int(dim)
        self.num_outputs = int(num_outputs)
        self.rng = rng
        self.net = MLP(2 * self.dim, self.num_outputs, hidden,
                       activation="relu", rng=rng)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.target_scaler = StandardScaler()
        self._trained = False

    def fit(self, inputs: np.ndarray, targets: np.ndarray, *,
            epochs: int | None = None) -> float:
        """Train on pseudo-samples with the MSE of Eq. 3; returns final loss.

        Training continues from the current weights, so a second call
        fine-tunes; ``epochs`` overrides the constructor's count for this
        call only.  The target scaler is refit and Adam starts afresh on
        every call.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if inputs.shape[1] != 2 * self.dim:
            raise ValueError(f"critic expects {2 * self.dim} input features, "
                             f"got {inputs.shape[1]}")
        if len(inputs) == 0 or len(inputs) != len(targets):
            raise ValueError(f"critic needs matching non-empty training rows, got "
                             f"{len(inputs)} inputs and {len(targets)} targets")
        if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
            raise ValueError("critic training rows must be finite")
        scaled = self.target_scaler.fit_transform(targets)
        epochs = self.epochs if epochs is None else int(epochs)
        last_loss = self.net.fit_mse(inputs, scaled, lr=self.lr, epochs=epochs,
                                     batch_size=self.batch_size, rng=self.rng)
        self._trained = True
        return last_loss

    def predict(self, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """Predicted normalized performance rows for anchors + displacements."""
        self._check_trained()
        x = np.atleast_2d(x)
        dx = np.atleast_2d(dx)
        scaled = self.net.predict(np.concatenate([x, dx], axis=1))
        return self.target_scaler.inverse_transform(scaled)

    def validation_rmse(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """RMSE on held-out pseudo-samples, in normalized-spec units."""
        self._check_trained()
        scaled_prediction = self.net.predict(np.atleast_2d(inputs))
        prediction = self.target_scaler.inverse_transform(scaled_prediction)
        return float(np.sqrt(np.mean((prediction - np.atleast_2d(targets)) ** 2)))

    def _check_trained(self) -> None:
        if not self._trained:
            raise RuntimeError("critic has not been trained")
