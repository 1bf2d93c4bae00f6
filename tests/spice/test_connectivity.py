"""DC-connectivity validation: which connections ground a node, which leave it floating.

A node needs a DC-conductive path to ground or the MNA matrix is singular.
The conductive connections are two-terminal resistive/source branches
(resistor, voltage source, inductor, diode, the output pair of a VCVS or
CCVS) and a MOSFET's drain-source channel.  Capacitors, current sources,
transconductance outputs, controlled-source sense pins and MOSFET gate or
bulk terminals carry no DC path.
"""

import numpy as np
import pytest

from repro.spice import NMOS_180, Circuit, dc_sweep, operating_point, transient
from repro.spice.errors import NetlistError
from repro.spice.netlist import GROUND_NAMES


def _driven() -> Circuit:
    """A circuit whose node ``in`` is grounded; callers hang ``x`` off it."""
    c = Circuit()
    c.vsource("V1", "in", "0", 1.0)
    c.resistor("RIN", "in", "0", "1k")
    c.vsource("VS", "sense", "0", 0.0)  # sense source for CCCS/CCVS
    return c


CONDUCTIVE = {
    "resistor": lambda c: c.resistor("RX", "in", "x", "1k"),
    "vsource": lambda c: c.vsource("VX", "x", "in", 0.5),
    "inductor": lambda c: c.inductor("LX", "in", "x", "1u"),
    "diode": lambda c: c.diode("DX", "in", "x"),
    "vcvs_output": lambda c: c.vcvs("EX", "x", "0", "in", "0", 2.0),
    "ccvs_output": lambda c: c.ccvs("HX", "x", "0", "VS", 100.0),
    "mosfet_drain_source": lambda c: c.mosfet("MX", "x", "in", "0", "0",
                                              NMOS_180, 1e-6, 1e-6),
    "mosfet_source_drain": lambda c: c.mosfet("MX", "0", "in", "x", "0",
                                              NMOS_180, 1e-6, 1e-6),
}

NON_CONDUCTIVE = {
    "capacitor": lambda c: c.capacitor("CX", "in", "x", "1p"),
    "isource": lambda c: c.isource("IX", "in", "x", 1e-6),
    "vccs_output": lambda c: c.vccs("GX", "x", "0", "in", "0", 1e-3),
    "cccs_output": lambda c: c.cccs("FX", "x", "0", "VS", 2.0),
    "vcvs_sense": lambda c: c.vcvs("EX", "in", "0", "x", "0", 2.0),
    "vccs_sense": lambda c: c.vccs("GX", "in", "0", "x", "0", 1e-3),
    "mosfet_gate": lambda c: c.mosfet("MX", "in", "x", "0", "0",
                                      NMOS_180, 1e-6, 1e-6),
    "mosfet_bulk": lambda c: c.mosfet("MX", "in", "in", "0", "x",
                                      NMOS_180, 1e-6, 1e-6),
}


@pytest.mark.parametrize("connect", CONDUCTIVE.values(), ids=CONDUCTIVE.keys())
def test_conductive_connection_grounds_node(connect):
    c = _driven()
    connect(c)
    c.compile().check_dc_connectivity()


@pytest.mark.parametrize("connect", NON_CONDUCTIVE.values(), ids=NON_CONDUCTIVE.keys())
def test_non_conductive_connection_leaves_node_floating(connect):
    c = _driven()
    connect(c)
    with pytest.raises(NetlistError) as info:
        c.compile().check_dc_connectivity()
    assert str(info.value) == "nodes with no DC path to ground: ['x']"


def test_multi_hop_chain_reaches_ground():
    c = Circuit()
    c.vsource("V1", "n0", "0", 1.0)
    c.resistor("R1", "n0", "n1", "1k")
    c.inductor("L1", "n1", "n2", "1u")
    c.diode("D1", "n2", "n3")
    c.mosfet("M1", "n4", "n0", "n3", "0", NMOS_180, 1e-6, 1e-6)
    c.vsource("V2", "n5", "n4", 0.1)
    c.resistor("R2", "n5", "n6", "1k")
    c.capacitor("C1", "n6", "0", "1p")
    c.compile().check_dc_connectivity()


def test_island_connected_internally_still_floats():
    """Nodes tied to each other but not to ground are all reported."""
    c = _driven()
    c.capacitor("C1", "in", "p", "1p")
    c.resistor("R1", "p", "q", "1k")
    c.inductor("L1", "q", "r", "1u")
    with pytest.raises(NetlistError) as info:
        c.compile().check_dc_connectivity()
    assert str(info.value) == "nodes with no DC path to ground: ['p', 'q', 'r']"


@pytest.mark.parametrize("ground", sorted(GROUND_NAMES))
def test_every_ground_alias_is_ground(ground):
    c = Circuit()
    c.vsource("V1", "in", ground, 1.0)
    c.resistor("R1", "in", "out", "1k")
    c.resistor("R2", "out", ground, "1k")
    c.compile().check_dc_connectivity()
    assert operating_point(c).v("out") == pytest.approx(0.5, rel=1e-9)


def test_mixed_ground_aliases_are_one_node():
    c = Circuit()
    c.vsource("V1", "in", "gnd", 1.0)
    c.resistor("R1", "in", "mid", "1k")
    c.resistor("R2", "mid", "vss!", "1k")
    c.capacitor("C1", "mid", "ground", "1p")
    c.compile().check_dc_connectivity()


def test_error_lists_every_floating_node_sorted():
    c = _driven()
    c.capacitor("C1", "in", "zeta", "1p")
    c.capacitor("C2", "in", "alpha", "1p")
    c.isource("I1", "in", "Mid", 1e-6)
    c.vccs("G1", "b2", "0", "in", "0", 1e-3)
    c.mosfet("M1", "in", "gate_only", "0", "0", NMOS_180, 1e-6, 1e-6)
    with pytest.raises(NetlistError) as info:
        c.compile().check_dc_connectivity()
    assert str(info.value) == (
        "nodes with no DC path to ground: "
        "['Mid', 'alpha', 'b2', 'gate_only', 'zeta']")


def _floating_rc() -> Circuit:
    """An RC divider plus node ``f`` reached only through a capacitor."""
    c = Circuit()
    c.vsource("V1", "in", "0", 1.0)
    c.resistor("R1", "in", "out", "1k")
    c.resistor("R2", "out", "0", "1k")
    c.capacitor("C1", "out", "f", "1p")
    return c


def test_operating_point_checks_connectivity():
    with pytest.raises(NetlistError, match=r"\['f'\]"):
        operating_point(_floating_rc())


def test_dc_sweep_checks_connectivity():
    with pytest.raises(NetlistError, match=r"\['f'\]"):
        dc_sweep(_floating_rc(), "V1", np.linspace(0.0, 1.0, 3))


def test_transient_without_uic_checks_connectivity():
    with pytest.raises(NetlistError, match=r"\['f'\]"):
        transient(_floating_rc(), 1e-10, 1e-9)


def test_transient_with_uic_skips_the_check():
    result = transient(_floating_rc(), 1e-10, 1e-9, uic=True, ics={"in": 1.0})
    assert np.all(np.isfinite(result.v("out")))
