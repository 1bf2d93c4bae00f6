"""DC sweep analysis (source value sweeps with warm-started Newton)."""

from __future__ import annotations

import numpy as np

from ..devices.sources import DC, CurrentSource, VoltageSource
from ..errors import AnalysisError
from ..solver import solve_dc
from .op import _assemble_factory

__all__ = ["DCSweepResult", "dc_sweep"]


class DCSweepResult:
    """Solutions of a DC sweep: one operating point per sweep value."""

    def __init__(self, compiled, values: np.ndarray, solutions: np.ndarray):
        self.compiled = compiled
        self.values = values
        self.solutions = solutions  # shape (n_points, system_size)

    def v(self, node: str) -> np.ndarray:
        """Voltage of ``node`` across the sweep."""
        index = self.compiled.node(node)
        if index < 0:
            return np.zeros(len(self.values))
        return self.solutions[:, index]

    def i(self, vsource: str) -> np.ndarray:
        """Branch current of ``vsource`` across the sweep."""
        branch = self.compiled.vsource_branch[vsource]
        return self.solutions[:, branch]


def dc_sweep(circuit, source_name: str, values) -> DCSweepResult:
    """Sweep the DC value of an independent source and re-solve each point.

    The source's waveform is temporarily replaced by a DC level and restored
    afterwards.  Consecutive solutions warm-start each other, which keeps
    Newton fast and follows a continuous branch of the DC solution.
    """
    values = np.asarray(values, dtype=np.float64)
    source = circuit[source_name]
    if not isinstance(source, (VoltageSource, CurrentSource)):
        raise AnalysisError(f"{source_name!r} is not an independent source")
    compiled = circuit.compile()
    compiled.check_dc_connectivity()

    # One compiled circuit and one assembly closure serve the whole sweep
    # (the stamping plan re-reads the swapped-in DC level every assembly).
    assemble = _assemble_factory(compiled)
    original = source.waveform
    solutions = np.zeros((len(values), compiled.size))
    x_prev = None
    try:
        for row, value in enumerate(values):
            source.waveform = DC(value)
            x_prev = solve_dc(compiled, assemble, x_prev)
            solutions[row] = x_prev
    finally:
        source.waveform = original
    return DCSweepResult(compiled, values, solutions)
