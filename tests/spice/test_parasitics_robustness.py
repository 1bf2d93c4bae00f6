"""Parasitic estimation and solver robustness / failure injection."""

import numpy as np
import pytest

from repro.spice import (
    Circuit,
    NMOS_180,
    ParasiticEstimator,
    estimate_parasitics,
    operating_point,
    transient,
)
from repro.spice.errors import ConvergenceError, NetlistError, AnalysisError
from repro.spice.analysis.ac import ac_analysis


def inverter() -> Circuit:
    c = Circuit()
    c.vsource("VDD", "vdd", "0", 1.8)
    c.vsource("VIN", "in", "0", 0.9)
    c.mosfet("MN", "out", "in", "0", "0", NMOS_180, 2e-6, 0.18e-6)
    c.resistor("RL", "vdd", "out", "10k")
    return c


class TestParasitics:
    def test_node_capacitance_scales_with_width(self):
        narrow = inverter()
        estimator = ParasiticEstimator()
        caps_narrow = estimator.node_capacitance(narrow)

        wide = Circuit()
        wide.vsource("VDD", "vdd", "0", 1.8)
        wide.vsource("VIN", "in", "0", 0.9)
        wide.mosfet("MN", "out", "in", "0", "0", NMOS_180, 20e-6, 0.18e-6)
        wide.resistor("RL", "vdd", "out", "10k")
        caps_wide = estimator.node_capacitance(wide)
        assert caps_wide["out"] > caps_narrow["out"]

    def test_apply_adds_named_capacitors(self):
        c = inverter()
        n_before = len(c)
        added = estimate_parasitics(c, skip={"vdd"})
        assert added == len(c) - n_before
        names = {d.name for d in c.devices}
        assert "CPAR_out" in names and "CPAR_vdd" not in names

    def test_parasitics_do_not_break_op(self):
        c = inverter()
        estimate_parasitics(c)
        op = operating_point(c)
        assert 0.0 < op.v("out") < 1.8


class TestSolverRobustness:
    def test_warm_start_reuses_solution(self):
        c = inverter()
        op1 = operating_point(c)
        op2 = operating_point(c, x0=op1.x)
        np.testing.assert_allclose(op1.x, op2.x, atol=1e-8)

    def test_stiff_cross_coupled_pair_converges(self):
        """Bistable latch DC: homotopy must still find *an* equilibrium."""
        c = Circuit()
        c.vsource("VDD", "vdd", "0", 1.8)
        c.resistor("R1", "vdd", "a", "10k")
        c.resistor("R2", "vdd", "b", "10k")
        c.mosfet("M1", "a", "b", "0", "0", NMOS_180, 10e-6, 0.18e-6)
        c.mosfet("M2", "b", "a", "0", "0", NMOS_180, 10e-6, 0.18e-6)
        op = operating_point(c)
        assert np.all(np.isfinite(op.x))

    def test_nodeset_steers_equilibrium(self):
        c = Circuit()
        c.vsource("VDD", "vdd", "0", 1.8)
        c.resistor("R1", "vdd", "a", "10k")
        c.resistor("R2", "vdd", "b", "10k")
        c.mosfet("M1", "a", "b", "0", "0", NMOS_180, 10e-6, 0.18e-6)
        c.mosfet("M2", "b", "a", "0", "0", NMOS_180, 10e-6, 0.18e-6)
        op_a_high = operating_point(c, nodeset={"a": 1.8, "b": 0.0, "vdd": 1.8})
        assert op_a_high.v("a") > op_a_high.v("b")

    def test_empty_circuit_rejected(self):
        with pytest.raises(NetlistError):
            Circuit().compile()

    def test_transient_argument_validation(self):
        c = inverter()
        with pytest.raises(AnalysisError):
            transient(c, 1e-9, -1.0)
        with pytest.raises(AnalysisError):
            transient(c, 1e-6, 1e-9)
        # A Newton budget below one iteration is a caller error, reported up
        # front instead of as a step-halving stall at t=0.
        for max_newton in (0, -1):
            for circuit in (c, [c, inverter()]):
                with pytest.raises(AnalysisError, match="max_newton"):
                    transient(circuit, 1e-9, 1e-8, max_newton=max_newton)

    def test_ac_requires_stimulus(self):
        c = Circuit()
        c.vsource("V1", "a", "0", 1.0)  # no ac magnitude anywhere
        c.resistor("R1", "a", "0", "1k")
        op = operating_point(c)
        with pytest.raises(AnalysisError):
            ac_analysis(c, op, np.array([1e3]))

    def test_unknown_node_lookup(self):
        c = inverter()
        compiled = c.compile()
        with pytest.raises(NetlistError):
            compiled.node("nope")
        with pytest.raises(NetlistError):
            compiled.branch_current(np.zeros(compiled.size), "nope")
