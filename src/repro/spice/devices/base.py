"""Device interface for the MNA simulator.

Every device stamps its contribution into a shared system of equations.  The
convention throughout the package:

* Unknown vector ``x`` = node voltages (ground excluded) followed by branch
  currents (one per voltage-defined element: V sources, inductors, E/H
  sources).
* We solve the KCL residual ``F(x) = 0`` with Newton's method; devices add
  the current *leaving* each node to ``F`` and the corresponding partial
  derivatives to the Jacobian ``J``.  For linear devices the Jacobian is the
  familiar MNA stamp.
* Ground is node index ``-1``; :class:`repro.spice.mna.System` silently drops
  contributions to it.

Dynamic (charge/flux-storage) devices additionally implement transient
companion stamps and keep per-device integration state supplied by the
transient analysis.

Stamping-plan contract
----------------------
The compiled stamping plan (:mod:`repro.spice.plan`) bakes per-circuit
assembly programs instead of re-stamping every device each Newton
iteration.  Device authors must uphold:

* ``nonlinear = False`` promises that ``stamp_static`` is *affine in x with
  a constant Jacobian*: the plan captures the Jacobian (and any constant
  residual offset) once at ``x = 0`` and never calls ``stamp_static`` again.
  Such devices must not read ``sys.time``/``sys.source_scale`` — except
  independent sources (:class:`VoltageSource`/:class:`CurrentSource`), whose
  level terms the plan re-reads on every assembly (so ``dc_sweep`` waveform
  swaps and source-stepping homotopy keep working).
* ``stamp_dynamic`` must be affine in ``x`` for a fixed integration state:
  the plan captures it once per transient step (at ``x = 0``) and reuses the
  result for every Newton iteration within the step.  All companion models
  (conductance + history current) satisfy this by construction.
* ``nonlinear = True`` devices are re-evaluated every iteration.  The exact
  classes :class:`MOSFET` and :class:`Diode` run through vectorized batch
  evaluators; any other nonlinear class falls back to its per-device
  ``stamp_static`` (correct, just not vectorized).
* A plan may stack several topology-identical circuits (one netlist at
  several sizings).  Fallback devices are then stamped design by design
  into their own design's slice of the stacked workspace, so the clauses
  above are all they need to uphold.
* ``NoiseSource.psd`` must broadcast over an ndarray of frequencies
  (returning a scalar for a flat PSD is fine) — the batched noise analysis
  evaluates the whole grid in one call.

Mutating a compiled circuit's device *values* (geometry, R/C/L, gains)
invalidates the baked plan; add/remove devices through :class:`Circuit`,
which recompiles, or rebuild the netlist.

The affine/time-read/PSD clauses above are machine-checked: rule **RP03**
of the contract linter (``python -m repro.tools.lint src``, see README
"Static analysis & contracts") flags linear stamps that branch on ``x``,
non-source reads of ``sys.time``/``sys.source_scale``, and scalar
``math.*`` calls inside noise PSD closures.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Device", "DeviceIndex", "NoiseSource", "TRAP_THETA"]

#: implicitness of the "trapezoidal" companion (0.5 = pure trapezoidal).
#: Pure trapezoidal lets capacitor companion currents oscillate forever at
#: constant voltage (a classic artifact); a slightly implicit theta damps
#: them by (1-theta)/theta per step at negligible accuracy cost.
TRAP_THETA = 0.52


@dataclass(frozen=True)
class DeviceIndex:
    """Resolved matrix indices for one device instance in one circuit."""

    nodes: tuple[int, ...]
    branches: tuple[int, ...] = ()


@dataclass(frozen=True)
class NoiseSource:
    """A small-signal noise current source between two nodes.

    ``psd(f)`` returns the one-sided current power spectral density in
    A^2/Hz at frequency ``f``.
    """

    name: str
    node_plus: int
    node_minus: int
    psd: callable


class Device:
    """Base class for circuit elements."""

    #: number of auxiliary branch-current unknowns this device introduces
    num_branches = 0
    #: True if the static stamp depends on the solution vector
    nonlinear = False
    #: True if the device stores charge/flux (participates in transient/AC dynamics)
    dynamic = False

    def __init__(self, name: str, nodes: tuple[str, ...]):
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)

    # -- static (resistive) part ---------------------------------------
    def stamp_static(self, sys, x, idx: DeviceIndex) -> None:
        """Add memoryless contributions at solution ``x`` (DC and transient)."""

    # -- dynamic part ---------------------------------------------------
    def init_state(self, x, idx: DeviceIndex):
        """Return integration state at the initial solution (or None)."""
        return None

    def stamp_dynamic(self, sys, x, idx: DeviceIndex, state, dt: float, method: str) -> None:
        """Add companion-model contributions for one transient step."""

    def update_state(self, x, idx: DeviceIndex, state, dt: float, method: str):
        """Advance integration state after a converged transient step."""
        return state

    # -- small-signal part ----------------------------------------------
    def stamp_smallsignal(self, sys, xop, idx: DeviceIndex) -> None:
        """Stamp the linearization at the operating point into ``sys.G``/``sys.C``."""

    def stamp_ac_rhs(self, sys, idx: DeviceIndex) -> None:
        """Add the AC stimulus of independent sources to ``sys.rhs``."""

    # -- noise ------------------------------------------------------------
    def noise_sources(self, xop, idx: DeviceIndex) -> list[NoiseSource]:
        """Small-signal noise current sources evaluated at the OP."""
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"
