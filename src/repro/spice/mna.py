"""Modified-nodal-analysis system containers.

Two workspaces are provided: :class:`System` for real Newton iterations
(DC/transient) and :class:`ACSystem` for complex small-signal analyses.
Both drop contributions to the ground index ``-1`` so devices never need to
special-case ground connections.

Workspaces are designed to be *reused*: the compiled stamping plan
(:mod:`repro.spice.plan`) allocates one stacked ``(B, n, n)`` workspace per
plan, with one :class:`System` view per design, and overwrites it in place
every Newton iteration instead of allocating a fresh container, and the AC
analyses cache one :class:`ACSystem` per operating point (rebuilding only
``rhs``).  Consumers must therefore treat a returned workspace as valid
only until the next assembly call on the same plan.
"""

from __future__ import annotations

import numpy as np

__all__ = ["System", "ACSystem"]


class System:
    """Real Newton workspace: Jacobian ``J`` and KCL residual ``f``.

    ``J``/``f`` may be passed in to make the system a view onto existing
    storage (one design's slice of a stacked plan workspace).
    """

    def __init__(self, size: int, J: np.ndarray | None = None,
                 f: np.ndarray | None = None):
        self.size = size
        self.J = np.zeros((size, size)) if J is None else J
        self.f = np.zeros(size) if f is None else f
        #: multiplies independent source values during source-stepping homotopy
        self.source_scale = 1.0
        #: simulation time for transient stamps; ``None`` selects the DC value
        self.time: float | None = None

    def reset(self) -> None:
        self.J[:] = 0.0
        self.f[:] = 0.0

    def add_jac(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.J[row, col] += value

    def add_res(self, row: int, value: float) -> None:
        if row >= 0:
            self.f[row] += value

    def stamp_conductance(self, a: int, b: int, g: float, x: np.ndarray) -> None:
        """Stamp a linear conductance between nodes ``a`` and ``b``.

        Adds both the Jacobian entries and the residual current ``g (va-vb)``.
        """
        va = x[a] if a >= 0 else 0.0
        vb = x[b] if b >= 0 else 0.0
        current = g * (va - vb)
        self.add_res(a, current)
        self.add_res(b, -current)
        self.add_jac(a, a, g)
        self.add_jac(a, b, -g)
        self.add_jac(b, a, -g)
        self.add_jac(b, b, g)


class ACSystem:
    """Complex small-signal workspace: ``(G + j omega C) x = rhs``."""

    def __init__(self, size: int):
        self.size = size
        self.G = np.zeros((size, size))
        self.C = np.zeros((size, size))
        self.rhs = np.zeros(size, dtype=complex)

    def add_G(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.G[row, col] += value

    def add_C(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.C[row, col] += value

    def add_rhs(self, row: int, value: complex) -> None:
        if row >= 0:
            self.rhs[row] += value

    def stamp_G_pair(self, a: int, b: int, g: float) -> None:
        self.add_G(a, a, g)
        self.add_G(a, b, -g)
        self.add_G(b, a, -g)
        self.add_G(b, b, g)

    def stamp_C_pair(self, a: int, b: int, c: float) -> None:
        self.add_C(a, a, c)
        self.add_C(a, b, -c)
        self.add_C(b, a, -c)
        self.add_C(b, b, c)

    def matrix(self, omega: float) -> np.ndarray:
        return self.G + 1j * omega * self.C
