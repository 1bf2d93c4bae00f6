"""Loss function for :mod:`repro.nn`."""

from __future__ import annotations

from .tensor import Tensor

__all__ = ["mse_loss"]


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements (Eq. 3 of the paper)."""
    diff = prediction - target
    return (diff * diff).mean()
