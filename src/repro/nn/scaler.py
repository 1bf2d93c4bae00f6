"""Feature scaling used to condition network targets.

DNN-Opt trains its critic on heterogeneous spec values (dB, ns, mW, uV...);
the critic z-scores its targets before training and maps predictions back
through the exact inverse transform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StandardScaler"]


class StandardScaler:
    """Per-column z-score normalization with degenerate-column protection."""

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "StandardScaler":
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        self.mean_ = data.mean(axis=0)
        std = data.std(axis=0)
        # Constant columns scale by 1 so transform is exactly zero there.
        self.scale_ = np.where(std < 1e-12, 1.0, std)
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return (np.asarray(data, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        return self.fit(data).transform(data)

    def inverse_transform(self, data: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return np.asarray(data, dtype=np.float64) * self.scale_ + self.mean_

    def _check_fitted(self) -> None:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
