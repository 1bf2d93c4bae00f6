"""A small NumPy deep-learning substrate (autograd, layers, optimizers).

This package replaces PyTorch for the DNN-Opt reproduction: it provides
reverse-mode automatic differentiation on NumPy arrays, MLP building blocks,
the Adam optimizer, the MSE loss (the per-op tape reference for the fused
critic trainer) and the z-score scaler the critic normalizes its targets with.
"""

from .tensor import Tensor, concatenate, maximum, minimum, where
from .layers import MLP, Identity, LeakyReLU, Linear, Module, ReLU, Sequential, Sigmoid, Tanh
from .optim import Adam, Optimizer
from .losses import mse_loss
from .scaler import StandardScaler

__all__ = [
    "Tensor",
    "concatenate",
    "maximum",
    "minimum",
    "where",
    "Module",
    "Linear",
    "MLP",
    "Sequential",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Optimizer",
    "Adam",
    "mse_loss",
    "StandardScaler",
]
