"""A small NumPy deep-learning substrate (fused MLP, graph core, Adam).

This package replaces PyTorch for the DNN-Opt reproduction: it provides the
MLP both networks are built from (a fused forward pass and a hand-written
VJP), the parameter-holding :class:`Tensor` with a reverse-mode graph core
for fused primitives, the Adam optimizer and the z-score scaler the critic
normalizes its targets with.
"""

from .tensor import Tensor
from .layers import MLP, Identity, LeakyReLU, Linear, Module, ReLU, Sigmoid, Tanh
from .optim import Adam
from .scaler import StandardScaler

__all__ = [
    "Tensor",
    "Module",
    "Linear",
    "MLP",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Adam",
    "StandardScaler",
]
