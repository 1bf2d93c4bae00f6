"""StrongARM latch comparator — the paper's second building block (Fig. 5).

Clocked regenerative comparator: clock-gated tail, NMOS input pair
integrating onto the X nodes, cross-coupled NMOS/PMOS latch on the output
nodes, four PMOS precharge switches, and output buffer inverters driving
the capacitive load.  All specs of Eq. 10 are measured from one transient
covering a full clock period (reset -> evaluate -> reset), except the
input-referred noise, which uses the standard StrongARM estimate

    sigma_in ~ sqrt(4 kT gamma / (gm_in * t_int))

with ``gm_in`` and the integration time ``t_int`` extracted from the same
transient (a transient-noise simulator is out of scope; the estimate
preserves the gm * t_int sizing trade-off the constraint is meant to push
on — documented in DESIGN.md/EXPERIMENTS.md).

Variable roles (Table III):

====  =====================================
pair  devices
====  =====================================
W1L1  clock tail switch
W2L2  NMOS input pair
W3L3  cross-coupled NMOS latch pair
W4L4  cross-coupled PMOS latch pair
W5L5  four PMOS precharge switches
W6L6  output buffer inverters (PMOS 2x W6)
CL    load capacitance, 1 fF per finger
====  =====================================
"""

from __future__ import annotations

import numpy as np

from ..problems.base import Objective, Spec, Variable
from ..spice import Circuit, NMOS_180, PMOS_180, Pulse, transient
from ..spice.devices.passives import BOLTZMANN, ROOM_TEMPERATURE
from ..spice.errors import AnalysisError, SpiceError
from ..spice.waveform import crossings
from .base import SizingCircuit

__all__ = ["StrongArmLatch"]


class StrongArmLatch(SizingCircuit):
    """StrongARM latch comparator sized per Table III / Eq. 10."""

    name = "strongarm_latch"

    def __init__(self, vdd: float = 1.2, vcm: float = 0.7, vdiff: float = 10e-3,
                 *, eval_window: float = 12e-9, reset_window: float = 12e-9,
                 clk_delay: float = 2e-9, tran_step: float = 40e-12):
        self.vdd = float(vdd)
        self.vcm = float(vcm)
        self.vdiff = float(vdiff)
        self.eval_window = float(eval_window)
        self.reset_window = float(reset_window)
        self.clk_delay = float(clk_delay)
        self.tran_step = float(tran_step)

    # ------------------------------------------------------------------
    # Problem definition (Table III + Eq. 10)
    # ------------------------------------------------------------------
    def variables(self) -> list[Variable]:
        variables = [Variable(f"L{i}", 0.18, 10.0, unit="um") for i in "123456"]
        variables += [Variable(f"W{i}", 0.22, 50.0, unit="um") for i in "123456"]
        variables.append(Variable("CL_finger", 10, 300, kind="integer"))
        return variables

    def objective(self) -> Objective:
        return Objective("power_w", scale=10e-6, weight=1.0, unit="W")

    def specs(self) -> list[Spec]:
        return [
            Spec("set_delay_s", "max", 10e-9, unit="s"),
            Spec("reset_delay_s", "max", 6.5e-9, unit="s"),
            Spec("area_um2", "max", 26.0, unit="um^2"),
            # Paper bound: 50 uVrms; re-centred to our technology models
            # (see EXPERIMENTS.md) so the constraint is binding but feasible.
            Spec("input_noise_vrms", "max", 250e-6, unit="Vrms"),
            Spec("diff_reset_v", "max", 1e-6, unit="V"),
            Spec("diff_set_v", "min", 1.195, unit="V"),
            Spec("xp_reset_v", "max", 60e-6, unit="V"),
            Spec("xn_reset_v", "max", 60e-6, unit="V"),
            Spec("outp_reset_v", "max", 0.35e-6, unit="V"),
            Spec("outn_reset_v", "max", 0.35e-6, unit="V"),
        ]

    def nominal(self) -> dict[str, float]:
        return {
            "L1": 0.18, "L2": 0.25, "L3": 0.18, "L4": 0.18, "L5": 0.18, "L6": 0.18,
            "W1": 8.0, "W2": 12.0, "W3": 4.0, "W4": 3.0, "W5": 2.0, "W6": 1.5,
            "CL_finger": 20,
        }

    def witness(self) -> dict[str, float]:
        """A design that meets every spec: :meth:`nominal` does."""
        return self.nominal()

    # ------------------------------------------------------------------
    # Netlist
    # ------------------------------------------------------------------
    def build(self, params: dict[str, float]) -> Circuit:
        p = {k: float(v) for k, v in params.items()}
        um = 1e-6
        w = {i: p[f"W{i}"] * um for i in "123456"}
        l = {i: p[f"L{i}"] * um for i in "123456"}
        c_load = max(1, int(round(p["CL_finger"]))) * 1e-15

        period = self.clk_delay + self.eval_window + self.reset_window
        clk = Pulse(0.0, self.vdd, delay=self.clk_delay, rise=50e-12, fall=50e-12,
                    width=self.eval_window, period=period * 10)

        c = Circuit(self.name)
        c.vsource("VDD", "vdd", "0", self.vdd)
        c.vsource("VCLK", "clk", "0", clk)
        c.vsource("VIP", "vip", "0", self.vcm + 0.5 * self.vdiff)
        c.vsource("VIN", "vin", "0", self.vcm - 0.5 * self.vdiff)

        # Core: tail, input pair, cross-coupled latch.
        c.mosfet("M1", "ptail", "clk", "0", "0", NMOS_180, w["1"], l["1"])
        c.mosfet("M2", "x1", "vip", "ptail", "0", NMOS_180, w["2"], l["2"])
        c.mosfet("M3", "x2", "vin", "ptail", "0", NMOS_180, w["2"], l["2"])
        c.mosfet("M4", "q1", "q2", "x1", "0", NMOS_180, w["3"], l["3"])
        c.mosfet("M5", "q2", "q1", "x2", "0", NMOS_180, w["3"], l["3"])
        c.mosfet("M6", "q1", "q2", "vdd", "vdd", PMOS_180, w["4"], l["4"])
        c.mosfet("M7", "q2", "q1", "vdd", "vdd", PMOS_180, w["4"], l["4"])

        # Precharge switches (PMOS, on while clk is low).
        c.mosfet("S1", "q1", "clk", "vdd", "vdd", PMOS_180, w["5"], l["5"])
        c.mosfet("S2", "q2", "clk", "vdd", "vdd", PMOS_180, w["5"], l["5"])
        c.mosfet("S3", "x1", "clk", "vdd", "vdd", PMOS_180, w["5"], l["5"])
        c.mosfet("S4", "x2", "clk", "vdd", "vdd", PMOS_180, w["5"], l["5"])

        # Output buffer inverters and load.
        c.mosfet("MI1N", "von", "q1", "0", "0", NMOS_180, w["6"], l["6"])
        c.mosfet("MI1P", "von", "q1", "vdd", "vdd", PMOS_180, 2.0 * w["6"], l["6"])
        c.mosfet("MI2N", "vop", "q2", "0", "0", NMOS_180, w["6"], l["6"])
        c.mosfet("MI2P", "vop", "q2", "vdd", "vdd", PMOS_180, 2.0 * w["6"], l["6"])
        c.capacitor("CL1", "von", "0", c_load)
        c.capacitor("CL2", "vop", "0", c_load)
        return c

    # ------------------------------------------------------------------
    # Testbench
    # ------------------------------------------------------------------
    def simulate_batch(self, designs: list[dict[str, float]]) -> list[dict]:
        """The designs' testbench transients, integrated together in lock-step."""
        t_end = self.clk_delay + self.eval_window + self.reset_window
        nodeset = {"vdd": self.vdd, "q1": self.vdd, "q2": self.vdd,
                   "x1": self.vdd, "x2": self.vdd, "von": 0.0, "vop": 0.0}
        trans = transient([self.build(params) for params in designs],
                          self.tran_step, t_end, ics=nodeset)
        return [{"tran": tran} for tran in trans]

    def measure(self, params: dict[str, float], *, tran=None) -> dict[str, float]:
        """Every Eq. 10 metric; ``tran`` is this design's share of
        :meth:`simulate_batch` (simulated here when not given)."""
        if tran is None:
            tran = self.simulate_batch([params])[0]["tran"]
        if isinstance(tran, SpiceError):
            raise tran
        t_eval = self.clk_delay                      # clock rise
        t_reset = self.clk_delay + self.eval_window  # clock fall
        t_end = t_reset + self.reset_window

        t = tran.t
        diff = tran.diff("q1", "q2")
        results: dict[str, float] = {}

        # Set delay and achieved set level (vip > vin, so q2 falls, diff rises).
        set_level = 1.195
        set_cross = crossings(t, np.abs(diff), set_level, "rise")
        set_cross = set_cross[set_cross >= t_eval]
        window = self.eval_window
        if len(set_cross):
            results["set_delay_s"] = float(set_cross[0] - t_eval)
        else:
            results["set_delay_s"] = window  # fallback: never set
        eval_mask = (t >= t_eval) & (t <= t_reset)
        results["diff_set_v"] = float(np.max(np.abs(diff[eval_mask])))

        # Reset delay: |diff| back below 1 mV after the falling clock edge.
        reset_cross = crossings(t, np.abs(diff), 1e-3, "fall")
        reset_cross = reset_cross[reset_cross >= t_reset]
        if len(reset_cross):
            results["reset_delay_s"] = float(reset_cross[0] - t_reset)
        else:
            results["reset_delay_s"] = self.reset_window

        # Residual voltages at the end of the reset phase.
        results["diff_reset_v"] = float(np.abs(diff[-1]))
        results["xp_reset_v"] = float(abs(self.vdd - tran.v("x1")[-1]))
        results["xn_reset_v"] = float(abs(self.vdd - tran.v("x2")[-1]))
        results["outp_reset_v"] = float(abs(tran.v("vop")[-1]))
        results["outn_reset_v"] = float(abs(tran.v("von")[-1]))

        # Average supply power over the full period.
        i_vdd = tran.i("VDD")
        energy = -np.trapezoid(i_vdd * self.vdd, t)  # supply current is negative
        results["power_w"] = float(abs(energy) / t_end)

        # Area: transistors plus load capacitors (0.02 um^2 per fF).
        p = {k: float(v) for k, v in params.items()}
        counts = {"1": 1, "2": 2, "3": 2, "4": 2, "5": 4, "6": 3}
        area = sum(p[f"W{i}"] * p[f"L{i}"] * n for i, n in counts.items())
        area += 2 * (max(1, round(p["CL_finger"])) * 0.02)
        results["area_um2"] = float(area)

        # Input-referred noise estimate from the integration phase.
        results["input_noise_vrms"] = self._input_noise(params, tran, t_eval)
        return results

    def _input_noise(self, params: dict[str, float], tran, t_eval: float) -> float:
        """sqrt(4 kT gamma / (gm_in t_int)) with gm and t_int from the transient."""
        t = tran.t
        # Integration time: clock edge until an X node has discharged by vth.
        x1 = tran.v("x1")
        try:
            drop = crossings(t, x1, self.vdd - 0.45, "fall")
            drop = drop[drop >= t_eval]
            t_int = float(drop[0] - t_eval) if len(drop) else self.eval_window
        except AnalysisError:
            t_int = self.eval_window
        t_int = max(t_int, 5e-12)
        # Input-pair gm from the tail current at mid-integration (square law).
        i_vdd = np.abs(tran.i("VDD"))
        i_tail = float(np.interp(t_eval + 0.5 * t_int, t, i_vdd))
        p = {k: float(v) for k, v in params.items()}
        kwl = 300e-6 * (p["W2"] / p["L2"])  # NMOS kp * W/L
        gm = float(np.sqrt(max(2.0 * kwl * 0.5 * i_tail, 1e-18)))
        gamma_noise = 2.0 / 3.0
        sigma_sq = 4.0 * BOLTZMANN * ROOM_TEMPERATURE * gamma_noise / (gm * t_int)
        return float(np.sqrt(sigma_sq))
