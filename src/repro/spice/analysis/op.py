"""DC operating-point analysis."""

from __future__ import annotations

import numpy as np

from ..devices.mosfet import MOSFET
from ..devices.sources import VoltageSource
from ..mna import System
from ..plan import stamping_mode
from ..solver import solve_dc

__all__ = ["OperatingPoint", "operating_point"]


class OperatingPoint:
    """Converged DC solution with convenience accessors.

    Device accessors use the compiled circuit's name->(device, index) map,
    so ``mosfet_op``/``source_power`` are O(1) instead of scanning the
    netlist — they sit inside testbench measurement loops.
    """

    def __init__(self, compiled, x: np.ndarray):
        self.compiled = compiled
        self.x = x
        #: cached small-signal (G, C) assembly, owned by the AC analysis
        self._smallsignal = None

    def v(self, node: str) -> float:
        """DC voltage of ``node``."""
        return self.compiled.voltage(self.x, node)

    def i(self, vsource: str) -> float:
        """Branch current of voltage source ``vsource`` (flowing + -> -)."""
        return self.compiled.branch_current(self.x, vsource)

    def source_power(self, vsource: str) -> float:
        """Power *delivered by* the source (positive for a supply)."""
        entry = self.compiled.device_map.get(vsource)
        if entry is None or not isinstance(entry[0], VoltageSource):
            raise KeyError(vsource)
        device, idx = entry
        return -device.voltage_at(None) * self.x[idx.branches[0]]

    def mosfet_op(self, name: str):
        """Small-signal operating record of MOSFET ``name``."""
        entry = self.compiled.device_map.get(name)
        if entry is None or not isinstance(entry[0], MOSFET):
            raise KeyError(name)
        device, idx = entry
        return device.operating_point(self.x, idx)

    def mosfet_ops(self) -> dict:
        """Operating records for every MOSFET, keyed by device name."""
        return {device.name: device.operating_point(self.x, idx)
                for device, idx in self.compiled.mosfet_entries}


def _assemble_factory(compiled):
    """The Newton ``assemble(x, gmin, source_scale)`` closure.

    The default implementation delegates to the compiled stamping plan
    (baked linear Jacobian + vectorized nonlinear scatter into a reused
    workspace); the legacy mode re-stamps every device through per-entry
    Python calls and is kept as the numerical reference.
    """
    if stamping_mode() == "plan":
        plan = compiled.plan()

        def assemble(x, gmin, source_scale):
            plan.assemble_static(x, gmin=gmin, source_scale=source_scale, time=None)
            return plan.systems[0]

        return assemble

    def assemble(x, gmin, source_scale):
        sys = System(compiled.size)
        sys.source_scale = source_scale
        sys.time = None
        for device, idx in compiled.devices_with_indices():
            device.stamp_static(sys, x, idx)
        for i in range(compiled.num_nodes):
            sys.add_jac(i, i, gmin)
            sys.add_res(i, gmin * x[i])
        return sys

    return assemble


def nodeset_vector(circuit, values: dict[str, float]) -> np.ndarray:
    """Initial-guess vector from a ``{node: voltage}`` mapping (a SPICE
    ``.nodeset``): unlisted nodes and branch currents start at zero, and
    names not present in this circuit are ignored (testbench variants of
    one circuit can share a nodeset)."""
    compiled = circuit.compile()
    x0 = np.zeros(compiled.size)
    for node, value in values.items():
        if node in compiled.node_index:
            x0[compiled.node_index[node]] = value
    return x0


def operating_point(circuit, x0: np.ndarray | None = None, *,
                    nodeset: dict[str, float] | None = None,
                    check: bool = True) -> OperatingPoint:
    """Solve the DC operating point of ``circuit``.

    ``x0`` warm-starts Newton (e.g. from a nearby sizing during sweeps);
    ``nodeset`` builds the warm start from node voltages instead — used to
    steer multi-equilibrium circuits (feedback loops, latches) toward the
    intended operating branch.  ``check=False`` skips the DC-connectivity
    validation.
    """
    compiled = circuit.compile()
    if check:
        compiled.check_dc_connectivity()
    if x0 is None and nodeset:
        x0 = nodeset_vector(circuit, nodeset)
    x = solve_dc(compiled, _assemble_factory(compiled), x0)
    return OperatingPoint(compiled, x)
