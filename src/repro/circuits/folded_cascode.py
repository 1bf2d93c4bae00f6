"""Folded-cascode OTA — the paper's first small building block (Fig. 2).

A two-stage operational transconductance amplifier: folded-cascode first
stage (NMOS input pair folding into a PMOS cascode branch with a cascoded
NMOS mirror) followed by a class-A common-source second stage with Miller
compensation.  The paper's fully-differential two-stage OTA with CMFB is
realized here single-ended (mirror-loaded) for DC robustness across the
whole 20-dimensional sizing space; the variable list and bounds are exactly
Table I and the constraint structure matches Eq. 9 — 9 scalar performance
constraints plus 20 per-transistor saturation-margin constraints = 29, the
paper's count.

Open-loop testbenches bias the amplifier with the classic *stb* servo: a
huge inductor closes unity feedback at DC (so the high-gain output does not
rail) while an AC-coupled source drives the loop above a few hertz.

Variable roles (Fig. 2 shares W/L labels across device groups; the
``(N1+N2)`` folding-source multiplier follows the schematic annotation):

====  =======================================================
pair  devices
====  =======================================================
W1L1  NMOS input pair (m=N1), tail (m=2*N1), bias legs (m=N8)
W2L2  PMOS folding sources (m=N1+N2) and their bias diode
W3L3  PMOS cascodes (m=N2) and cascode-bias stack
W4L4  NMOS cascodes (m=N2) and wide-swing bias diode
W5L5  NMOS mirror bottoms (m=N2)
W6L6  second-stage PMOS driver (m=N9)
W7L7  second-stage NMOS sink (m=N9)
MCAP  Miller compensation capacitor [fF]
Cf    load capacitor [fF]
====  =======================================================
"""

from __future__ import annotations

import numpy as np

from ..problems.base import Objective, Spec, Variable
from ..spice import (
    Circuit,
    NMOS_180,
    PMOS_180,
    Pulse,
    ac_analysis,
    noise_analysis,
    operating_point,
    transient,
    waveform,
)
from .base import SizingCircuit
from .testbench import ac_frequencies, extract_loop_metrics, settling_metrics

__all__ = ["FoldedCascodeOTA", "SATURATION_DEVICES"]

#: transistors whose saturation margin is constrained (20, as in the paper)
SATURATION_DEVICES = [
    "M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10",
    "M11", "M12", "MB0", "MB1", "MB2", "MP0", "MP1A", "MP1B", "MP2",
]

_SERVO_INDUCTANCE = 1e9  # H: DC short, open above ~1 Hz
_SERVO_CAPACITANCE = 1.0  # F: AC short for the driven input


class FoldedCascodeOTA(SizingCircuit):
    """Two-stage folded-cascode OTA sized per Table I / Eq. 9."""

    name = "folded_cascode_ota"

    def __init__(self, vdd: float = 3.3, vcm: float = 1.6, ibias: float = 20e-6,
                 *, settle_window: float = 180e-9, tran_step: float = 1.5e-9):
        self.vdd = float(vdd)
        self.vcm = float(vcm)
        self.ibias = float(ibias)
        self.settle_window = float(settle_window)
        self.tran_step = float(tran_step)

    # ------------------------------------------------------------------
    # Problem definition (Table I + Eq. 9)
    # ------------------------------------------------------------------
    def variables(self) -> list[Variable]:
        names_wl = ["1", "2", "3", "4", "5", "6", "7"]
        variables = [Variable(f"L{i}", 0.18, 2.0, unit="um") for i in names_wl]
        variables += [Variable(f"W{i}", 0.24, 150.0, unit="um") for i in names_wl]
        variables += [Variable(f"N{i}", 1, 20, kind="integer") for i in ("1", "2", "8", "9")]
        variables += [Variable("MCAP", 100.0, 2000.0, unit="fF"),
                      Variable("Cf", 100.0, 10000.0, unit="fF")]
        return variables

    def objective(self) -> Objective:
        return Objective("power_w", scale=1e-3, weight=1.0, unit="W")

    def specs(self) -> list[Spec]:
        specs = [
            Spec("dc_gain_db", "min", 60.0, unit="dB"),
            Spec("settling_time_s", "max", 100e-9, unit="s"),
            Spec("cmrr_db", "min", 80.0, unit="dB"),
            Spec("psrr_db", "min", 80.0, unit="dB"),
            Spec("ugf_hz", "min", 30e6, unit="Hz"),
            Spec("output_swing_v", "min", 2.4, unit="V"),
            Spec("output_noise_vrms", "max", 30e-3, unit="Vrms"),
            Spec("static_error_pct", "max", 0.1, unit="%"),
            Spec("phase_margin_deg", "min", 60.0, unit="deg"),
        ]
        specs += [Spec(f"satmargin_{dev}_v", "min", 50e-3, unit="V")
                  for dev in SATURATION_DEVICES]
        return specs

    def nominal(self) -> dict[str, float]:
        """A hand-placed reasonable sizing (used by tests and examples)."""
        return {
            "L1": 0.5, "L2": 0.6, "L3": 0.5, "L4": 0.5, "L5": 0.6,
            "L6": 0.4, "L7": 0.5,
            "W1": 40.0, "W2": 80.0, "W3": 40.0, "W4": 25.0, "W5": 25.0,
            "W6": 80.0, "W7": 25.0,
            "N1": 2, "N2": 2, "N8": 2, "N9": 4,
            "MCAP": 1500.0, "Cf": 1000.0,
        }

    def witness(self) -> dict[str, float]:
        """A design that meets every spec: differential evolution's first
        feasible design (seed 0, 600-simulation budget, simulation 559)."""
        return {
            "L1": 0.8228417405812622, "L2": 1.6217345936965855, "L3": 0.18,
            "L4": 0.9080000000000001, "L5": 0.18, "L6": 0.8000067889695188,
            "L7": 0.3181400226349973, "W1": 150.0, "W2": 125.77183038439948,
            "W3": 123.14703126348786, "W4": 32.38899412830472,
            "W5": 104.07470990490675, "W6": 80.19076339138556, "W7": 150.0,
            "N1": 1.0, "N2": 1.0, "N8": 1.0, "N9": 13.0,
            "MCAP": 117.34846256530675, "Cf": 100.0,
        }

    # ------------------------------------------------------------------
    # Netlist
    # ------------------------------------------------------------------
    def build(self, params: dict[str, float], *, feedback: bool = False,
              step_input: bool = False) -> Circuit:
        """Amplifier netlist.

        ``feedback=True`` wires the inverting input to the output (unity
        buffer, used for the settling transient); otherwise the *stb* servo
        (DC feedback through a huge inductor, AC drive through a huge
        capacitor) biases the open-loop testbench.  ``step_input=True``
        replaces the DC+AC input with the settling step.
        """
        p = {k: float(v) for k, v in params.items()}
        um = 1e-6
        w = {i: p[f"W{i}"] * um for i in "1234567"}
        l = {i: p[f"L{i}"] * um for i in "1234567"}
        n1, n2, n8, n9 = (max(1, int(round(p[f"N{i}"]))) for i in ("1", "2", "8", "9"))
        c_miller = p["MCAP"] * 1e-15
        c_load = p["Cf"] * 1e-15

        c = Circuit(self.name)
        c.vsource("VDD", "vdd", "0", self.vdd)
        if step_input:
            step = Pulse(self.vcm - 0.25, self.vcm + 0.25, delay=20e-9, rise=0.5e-9)
            c.vsource("VIP", "vip", "0", step)
        else:
            c.vsource("VIP", "vip", "0", self.vcm, ac=0.5)
        if feedback:
            inn = "vout"
        else:
            inn = "vinn"
            c.vsource("VIN", "vinsrc", "0", self.vcm, ac=-0.5)
            c.capacitor("CSRV", "vinsrc", "vinn", _SERVO_CAPACITANCE)
            c.inductor("LSRV", "vout", "vinn", _SERVO_INDUCTANCE)

        # --- bias chain: one unit current per (W1/L1, m=1) leg ------------
        c.isource("IB", "vdd", "nbias", self.ibias)
        c.mosfet("MB0", "nbias", "nbias", "0", "0", NMOS_180, w["1"], l["1"], m=n8)
        # pbias1: gate for the PMOS folding sources.
        c.mosfet("MB1", "pbias1", "nbias", "0", "0", NMOS_180, w["1"], l["1"], m=n8)
        c.mosfet("MP0", "pbias1", "pbias1", "vdd", "vdd", PMOS_180, w["2"], l["2"], m=n8)
        # pbias2: PMOS cascode gate, one stacked diode below VDD for headroom.
        c.mosfet("MB2", "pbias2", "nbias", "0", "0", NMOS_180, w["1"], l["1"], m=n8)
        c.mosfet("MP1A", "pmid", "pmid", "vdd", "vdd", PMOS_180, w["3"], l["3"], m=n8)
        c.mosfet("MP1B", "pbias2", "pbias2", "pmid", "vdd", PMOS_180, w["3"], l["3"], m=n8)
        # nbias2: wide-swing NMOS cascode gate (long-L diode: vth + ~2.5 vdsat).
        c.mosfet("MP2", "nbias2", "pbias1", "vdd", "vdd", PMOS_180, w["2"], l["2"], m=n8)
        c.mosfet("MNW", "nbias2", "nbias2", "0", "0", NMOS_180, w["4"], 6.0 * l["4"], m=n8)

        # --- first stage: folded cascode ---------------------------------
        c.mosfet("M0", "vtail", "nbias", "0", "0", NMOS_180, w["1"], l["1"], m=2 * n1)
        c.mosfet("M1", "fn1", inn, "vtail", "0", NMOS_180, w["1"], l["1"], m=n1)
        c.mosfet("M2", "fn2", "vip", "vtail", "0", NMOS_180, w["1"], l["1"], m=n1)
        c.mosfet("M3", "fn1", "pbias1", "vdd", "vdd", PMOS_180, w["2"], l["2"], m=n1 + n2)
        c.mosfet("M4", "fn2", "pbias1", "vdd", "vdd", PMOS_180, w["2"], l["2"], m=n1 + n2)
        c.mosfet("M5", "cn1", "pbias2", "fn1", "vdd", PMOS_180, w["3"], l["3"], m=n2)
        c.mosfet("M6", "cn2", "pbias2", "fn2", "vdd", PMOS_180, w["3"], l["3"], m=n2)
        c.mosfet("M7", "cn1", "nbias2", "mn1", "0", NMOS_180, w["4"], l["4"], m=n2)
        c.mosfet("M8", "cn2", "nbias2", "mn2", "0", NMOS_180, w["4"], l["4"], m=n2)
        c.mosfet("M9", "mn1", "cn1", "0", "0", NMOS_180, w["5"], l["5"], m=n2)
        c.mosfet("M10", "mn2", "cn1", "0", "0", NMOS_180, w["5"], l["5"], m=n2)

        # --- second stage with Miller compensation -----------------------
        c.mosfet("M11", "vout", "cn2", "vdd", "vdd", PMOS_180, w["6"], l["6"], m=n9)
        c.mosfet("M12", "vout", "nbias", "0", "0", NMOS_180, w["7"], l["7"], m=n9)
        c.resistor("RZ", "cn2", "zc", 2e3)
        c.capacitor("CC", "zc", "vout", c_miller)
        c.capacitor("CL", "vout", "0", c_load)
        return c

    # ------------------------------------------------------------------
    # Testbenches
    # ------------------------------------------------------------------
    def measure(self, params: dict[str, float]) -> dict[str, float]:
        """Run all testbenches and return every metric of Eq. 9."""
        results: dict[str, float] = {}
        freqs = ac_frequencies()

        # Servo-biased open-loop testbench: OP, differential AC, noise.
        amp = self.build(params)
        op = operating_point(amp, nodeset=self._nodeset())
        results["power_w"] = abs(op.source_power("VDD")) + self.vdd * self.ibias
        for device in SATURATION_DEVICES:
            mop = op.mosfet_op(device)
            results[f"satmargin_{device}_v"] = mop.saturation_margin

        ac_dm = ac_analysis(amp, op, freqs)
        h_dm = ac_dm.v("vout")
        results.update(extract_loop_metrics(freqs, h_dm))

        # Output swing from second-stage headroom.
        vdsat_p = op.mosfet_op("M11").vdsat
        vdsat_n = op.mosfet_op("M12").vdsat
        results["output_swing_v"] = self.vdd - vdsat_p - vdsat_n

        # Common-mode and supply gains reuse the same operating point.
        results["cmrr_db"] = self._rejection_db(amp, op, freqs, h_dm, mode="cm")
        results["psrr_db"] = self._rejection_db(amp, op, freqs, h_dm, mode="psr")

        # Output noise measured on the closed-loop buffer (the open-loop
        # noise of a 100 dB amplifier is dominated by the testbench, not the
        # design; the buffer's output noise is the input-referred amp noise).
        buffer_nz = self.build(params, feedback=True)
        op_nz = operating_point(buffer_nz, nodeset=self._nodeset())
        noise = noise_analysis(buffer_nz, op_nz, ac_frequencies(10.0, 1e9, 31), "vout")
        results["output_noise_vrms"] = noise.output_rms()

        # Closed-loop settling testbench (unity buffer, 0.5 V step).
        buffer_tb = self.build(params, feedback=True, step_input=True)
        tran = transient(buffer_tb, self.tran_step, 20e-9 + self.settle_window,
                         ics=self._nodeset())
        metrics = settling_metrics(tran.t, tran.v("vout"), t_step=20.5e-9,
                                   target=self.vcm + 0.25, step_size=0.5)
        results.update(metrics)
        return results

    def _nodeset(self) -> dict[str, float]:
        """Initial node voltages steering the feedback loop to the amplifying
        equilibrium (the railed state is also DC-stable)."""
        return {
            "vdd": self.vdd, "vip": self.vcm, "vinn": self.vcm, "vout": self.vcm,
            "vinsrc": self.vcm, "vtail": 0.9, "fn1": self.vdd - 0.55,
            "fn2": self.vdd - 0.55, "cn1": 0.55, "cn2": self.vdd - 0.7,
            "mn1": 0.1, "mn2": 0.1, "nbias": 0.5, "pbias1": self.vdd - 0.5,
            "pbias2": self.vdd - 1.1, "pmid": self.vdd - 0.5, "nbias2": 0.6,
        }

    def _rejection_db(self, amp: Circuit, op, freqs: np.ndarray, h_dm: np.ndarray,
                      mode: str) -> float:
        """CMRR/PSRR in dB: differential DC gain minus the spur-path DC gain."""
        vip = amp["VIP"]
        vin = amp["VIN"]
        vdd = amp["VDD"]
        saved = (vip.ac, vin.ac, vdd.ac)
        try:
            if mode == "cm":
                vip.ac, vin.ac, vdd.ac = 1.0, 1.0, 0.0
            else:
                vip.ac, vin.ac, vdd.ac = 0.0, 0.0, 1.0
            response = ac_analysis(amp, op, freqs[:8])
            spur_gain_db = waveform.dc_gain_db(response.v("vout"))
        finally:
            vip.ac, vin.ac, vdd.ac = saved
        return waveform.dc_gain_db(h_dm) - spur_gain_db
