"""Compiled stamping plans: the vectorized MNA hot path.

The legacy inner loop allocates a fresh :class:`~repro.spice.mna.System`
every Newton iteration and re-stamps *every* device through per-entry Python
``add_jac``/``add_res`` calls.  A :class:`StampPlan` — built once per
:class:`~repro.spice.netlist.CompiledCircuit` and cached on it — replaces
that with:

* **Baked linear part.**  Devices are partitioned into linear and nonlinear
  sets at plan build.  The linear devices' constant Jacobian is stamped once
  into ``J_lin``; each iteration then starts from ``J[:] = J_lin`` and gets
  the linear residual from one matvec ``J_lin @ x``.  Independent-source
  values are re-read from the device every assembly (so ``dc_sweep``'s
  waveform swapping keeps working) and scattered through precomputed rows.
* **Vectorized nonlinear stamps.**  All exact-class :class:`MOSFET`\\ s (and
  :class:`Diode`\\ s) in a circuit are evaluated as one numpy batch per
  iteration and scattered into the Jacobian/residual with a single
  ``np.add.at`` per array, using flat index vectors resolved at plan build.
  Other nonlinear device classes fall back to their per-device
  ``stamp_static`` — the generic path of the stamping-plan contract.
* **Per-step affine transient companions.**  Companion stamps are affine in
  ``x`` for a fixed integration state (see the contract notes in
  ``devices/base.py``), so each transient step bakes ``J_step``/``c_step``
  once — vectorized for MOSFET Meyer capacitors and linear capacitors,
  captured at ``x = 0`` for any other dynamic device — and Newton iterations
  inside the step touch no Python device code at all.
* **Reused workspaces.**  One preallocated stacked workspace (plus the baked
  matrices) serves every assembly; gmin stepping lands on a precomputed
  diagonal index vector.
* **Design stacking.**  A plan holds ``B`` topology-identical compiled
  circuits (``B = 1`` for the plan cached on a circuit).  Their device
  batches are concatenated with per-system index offsets into ``(B, n, n)``
  / ``(B, n)`` workspaces, so one vectorized evaluation covers designs x
  devices.  Every per-system quantity is computed with the same arithmetic
  as a one-design plan and nothing is reduced across systems, so each
  design's stamps are bit-identical whatever batch it rides in.  The
  ``J_lin @ x`` matvec stays one call per system for the same reason (a
  stacked ``matmul`` may round differently from ``gemv``).
* **Few NumPy calls per iteration.**  On one design of a few dozen devices
  an iteration's cost is the fixed overhead of each NumPy call, not its
  arithmetic, so the kernel makes as few calls as it can: per-device
  constants (``4 delta^2``, ``k lambda``, ``gamma / 2``, the Meyer sums) are
  baked at build; one effective-source select orients every device; each
  stamp value is one gather from a table of the derivatives, the drain
  current and their negations, at the row its slot takes in the device's
  orientation; the Meyer capacitances are rows of a per-region table; and
  the source terms of a step are computed once in
  :meth:`StampPlan.begin_step`.

**Bit-identity rule for the hot path.**  Every rewrite of this module must
keep each stamp bit-identical: the same IEEE operations on the same operands
in the same order, where the only permitted changes are constants baked
ahead of time (evaluated by the same expression), reuse of an identical
subexpression, and exact sign flips (negation, products with +-1, halving).
``tests/spice/test_mosfet_kernel.py`` pins the MOSFET kernel bitwise
against its term-by-term reference, and the end-to-end benchmark's history
hashes (``e2e_bench/run.py --trace 1``) must not change.

Numerical equivalence with the legacy path (same stamps, different summation
order) is pinned by ``tests/spice/test_stamp_plan.py``.  The legacy path
stays available through :func:`set_stamping_mode`/:func:`stamping` and is
what the hot-path benchmark reports as "before".
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from . import profile
from .devices.base import TRAP_THETA
from .devices.diode import Diode
from .devices.mosfet import MOSFET
from .devices.passives import Capacitor
from .devices.sources import CurrentSource, VoltageSource
from .mna import System

__all__ = ["StampPlan", "stamping_mode", "set_stamping_mode", "stamping"]

_MODES = ("plan", "legacy")
_MODE = "plan"

_THETA_DT = TRAP_THETA  # alias: companion theta shared with the devices
_HISTORY = (1.0 - _THETA_DT) / _THETA_DT  # trapezoidal history-current weight
_PAIR_SIGNS = (1.0, -1.0, -1.0, 1.0)  # two-terminal Jacobian stamp (a,a) (a,b) (b,a) (b,b)
_CURRENT_SIGNS = (1.0, -1.0)          # a current leaving node a and entering node b
_HISTORY_SIGNS = (-1.0, 1.0)          # a companion history current, (a, b)
#: Row of the MOSFET stamp table (see ``_MOSFETBatch.evaluate``) that each
#: static stamp slot reads, forward and reversed: Jacobian rows (d, s) x
#: cols (d, g, s, b), then residual rows (d, s).
_STAMP_ROWS_FWD = np.array([0, 1, 2, 3, 5, 6, 7, 8, 4, 9])
_STAMP_ROWS_REV = np.array([7, 6, 5, 8, 2, 1, 0, 3, 9, 4])


def stamping_mode() -> str:
    """Current assembly mode: ``"plan"`` (default) or ``"legacy"``."""
    return _MODE


def set_stamping_mode(mode: str) -> None:
    """Select the assembly implementation used by the analyses."""
    global _MODE
    if mode not in _MODES:
        raise ValueError(f"stamping mode must be one of {_MODES}, got {mode!r}")
    _MODE = mode


@contextmanager
def stamping(mode: str):
    """Temporarily switch the stamping mode (used by tests and benchmarks)."""
    previous = _MODE
    set_stamping_mode(mode)
    try:
        yield
    finally:
        set_stamping_mode(previous)


def _flat_scatter(rows: np.ndarray, cols: np.ndarray, size: int, base: np.ndarray):
    """Precompute a ground-dropping scatter: value positions + flat indices.

    ``rows``/``cols`` may contain ``-1`` (ground); those entries are removed.
    ``base`` (broadcast against ``rows``) offsets each entry into its own
    system's ``size x size`` block.  Returns ``(sel, idx)`` such that
    ``np.add.at(J.ravel(), idx, values.ravel()[sel])`` reproduces per-entry
    ``add_jac`` calls in order.
    """
    keep = (rows >= 0) & (cols >= 0)
    sel = np.flatnonzero(keep.ravel())
    idx = (base + rows * size + cols).ravel()[sel]
    return sel, idx


def _flat_res_scatter(rows: np.ndarray, base: np.ndarray):
    keep = rows >= 0
    sel = np.flatnonzero(keep.ravel())
    idx = (base + rows).ravel()[sel]
    return sel, idx


def _signed_gather(sel: np.ndarray, signs) -> tuple[np.ndarray, np.ndarray]:
    """``(src, sign)`` reading a signed stamp straight from its values.

    ``sel`` selects entries of the flattened ``(..., len(signs))`` array
    whose slot ``k`` holds ``signs[k] * value``; ``value.ravel()[src] * sign``
    gives those entries without building that array (a product with +-1 is
    exact, so the stamps are bit-identical).
    """
    src, slot = np.divmod(sel, len(signs))
    return src, np.asarray(signs)[slot]


def _by_method(trap, trapezoidal, euler, *args) -> tuple:
    """Evaluate each system's companion formula ``formula(*args)`` (a tuple).

    ``trap`` is one bool when every system steps with the same integration
    method (only that formula runs), else a per-device mask: both formulas
    run and each element takes its own system's, so the values match a
    one-method evaluation exactly.
    """
    if isinstance(trap, bool):
        return trapezoidal(*args) if trap else euler(*args)
    return tuple(np.where(trap, a, b) for a, b in zip(trapezoidal(*args), euler(*args)))


def _trapezoidal_companion(cap, v, i, dt) -> tuple:
    geq = cap / (_THETA_DT * dt)
    return geq, geq * v + _HISTORY * i


def _euler_companion(cap, v, i, dt) -> tuple:
    geq = cap / dt
    return geq, geq * v


def _companion(cap, v, i, dt, trap) -> tuple:
    """Companion conductance and history current of capacitances ``cap``."""
    return _by_method(trap, _trapezoidal_companion, _euler_companion, cap, v, i, dt)


def _trapezoidal_current(caps, v_old, i_old, v_new, dt) -> tuple:
    geq = caps / (_THETA_DT * dt)
    return (geq * (v_new - v_old) - _HISTORY * i_old,)


def _euler_current(caps, v_old, i_old, v_new, dt) -> tuple:
    return (caps / dt * (v_new - v_old),)


class _Batch:
    """Device entries of every system, concatenated system-major.

    ``entries`` holds one ``[(device, index), ...]`` list per system, with
    the same devices at the same positions in each.  Node indices become
    offsets into the stacked gather vector (``system * size + node``, ground
    -> the trailing zero slot), the residual (``system * size + row``) and
    the flattened ``(B, size, size)`` Jacobian.  ``gather`` is laid out
    ``(terminals, devices)`` so one fancy index yields a row per terminal.
    """

    def __init__(self, entries, size: int):
        flat = [entry for system in entries for entry in system]
        self.devices = [dev for dev, _ in flat]
        self.system = np.repeat(np.arange(len(entries)), len(entries[0]))
        idx = np.array([e.nodes for _, e in flat], dtype=np.intp)
        self.node_base = (self.system * size)[:, None]
        self.jac_base = (self.system * size * size)[:, None]
        self.gather = np.ascontiguousarray(
            np.where(idx < 0, len(entries) * size, idx + self.node_base).T)
        self.idx = idx
        self.size = size

    def pair_scatter(self, res_signs):
        """Scatter for two-terminal stamps (a, a) (a, b) (b, a) (b, b).

        The Jacobian reads one conductance per device through
        :data:`_PAIR_SIGNS`, the residual one current through ``res_signs``.
        """
        a, b = self.idx[:, 0], self.idx[:, 1]
        rows = np.stack([a, a, b, b], axis=1)
        cols = np.stack([a, b, a, b], axis=1)
        sel, self.jac_idx = _flat_scatter(rows, cols, self.size, self.jac_base)
        self.jac_src, self.jac_sign = _signed_gather(sel, _PAIR_SIGNS)
        sel, self.res_idx = _flat_res_scatter(self.idx, self.node_base)
        self.res_src, self.res_sign = _signed_gather(sel, res_signs)

    def voltages(self, xg: np.ndarray) -> np.ndarray:
        """Terminal-0 minus terminal-1 voltage of every device."""
        va, vb = xg[self.gather]
        return va - vb


class _MOSFETBatch(_Batch):
    """Vectorized square-law model + stamps for the exact-class MOSFETs.

    Mirrors ``MOSFET._ids``/``terminal_current``/``_capacitances`` term by
    term so plan and legacy paths agree to summation-order rounding.  The
    model runs the same IEEE operations in the same order as that
    reference; constants are baked at build and orientation is applied by
    exact sign flips and permuted reads, so every stamp is bit-identical to
    the term-by-term arithmetic.
    """

    def __init__(self, entries, size: int):
        super().__init__(entries, size)
        devices, idx = self.devices, self.idx
        n = len(devices)
        models = [dev.model for dev in devices]
        self.sign = np.array([1.0 if m.polarity == "n" else -1.0 for m in models])
        self.k = np.array([dev._k for dev in devices])
        self.lam = np.array([dev._lam for dev in devices])
        self.klam = self.k * self.lam
        self.vto = np.array([m.vto for m in models])
        self.gamma = np.array([m.gamma for m in models])
        # gamma / (2 sq) == (gamma / 2) / sq exactly (halving is exact); a
        # gamma = 0 device gets a zero body-effect slope from it directly.
        self.half_gamma = 0.5 * self.gamma
        self.phi = np.array([m.phi for m in models])
        self.sqrt_phi = np.sqrt(self.phi)
        delta = np.array([m.smooth for m in models])
        self.four_delta_sq = 4.0 * delta * delta
        # Static scatter: rows (d, s) x cols (d, g, s, b), then residual (d, s).
        # Every stamp value is one read of the stamp table, at the row its
        # slot takes in the device's orientation.
        rows = np.repeat(idx[:, [0, 2]], 4, axis=1)            # d d d d s s s s
        cols = np.tile(idx, (1, 2))                            # d g s b d g s b
        jac_sel, self.jac_idx = _flat_scatter(rows, cols, size, self.jac_base)
        res_sel, self.res_idx = _flat_res_scatter(idx[:, [0, 2]], self.node_base)
        jac_dev, jac_slot = np.divmod(jac_sel, 8)
        res_dev, res_slot = np.divmod(res_sel, 2)
        self.stamp_dev = np.concatenate([jac_dev, res_dev])
        slot = np.concatenate([jac_slot, 8 + res_slot])
        self.stamp_fwd = _STAMP_ROWS_FWD[slot] * n + self.stamp_dev
        self.stamp_rev = _STAMP_ROWS_REV[slot] * n + self.stamp_dev
        self.n_jac = len(jac_sel)
        self._table = np.empty((10, n))
        self._table_flat = self._table.ravel()
        self._table_rows = tuple(self._table[:5])              # views written in place
        self._table_halves = self._table[:5], self._table[5:]

        # Meyer capacitances (cgs, cgd, cgb, cdb, csb) of every device for
        # each region code of :meth:`capacitances`: the piecewise model is
        # evaluated once per code here, and each step only looks rows up.
        cox = np.array([m.cox * d.w * d.l * d.m for m, d in zip(models, devices)])
        ovl_s = np.array([m.cgso * d.w * d.m for m, d in zip(models, devices)])
        ovl_d = np.array([m.cgdo * d.w * d.m for m, d in zip(models, devices)])
        cj_diff = np.array([m.cj * d.w * 3.0 * m.lref * d.m for m, d in zip(models, devices)])
        code = np.arange(8)[:, None]
        cutoff, fwd = (code & 4) > 0, (code & 1) > 0
        saturation = ~cutoff & ((code & 2) > 0)
        cgs = np.where(cutoff, ovl_s, np.where(saturation, (2.0 / 3.0) * cox + ovl_s,
                                               0.5 * cox + ovl_s))
        cgd = np.where(cutoff | saturation, ovl_d, 0.5 * cox + ovl_d)
        cgb = np.where(cutoff, cox, 0.0)
        cj_diff = np.broadcast_to(cj_diff, cgb.shape)
        self._cap_table = np.stack([np.where(fwd, cgs, cgd), np.where(fwd, cgd, cgs), cgb,
                                    cj_diff, cj_diff], axis=2).ravel()  # (code, device, cap)
        self._cap_index = np.arange(n * 5).reshape(n, 5)

        # Meyer capacitor pairs (g,s) (g,d) (g,b) (d,b) (s,b).
        pairs = MOSFET._CAP_PAIRS
        pair_a = np.array([p[0] for p in pairs])
        pair_b = np.array([p[1] for p in pairs])
        self.pair_a_gather = self.gather[pair_a].T.copy()      # (n, 5)
        self.pair_b_gather = self.gather[pair_b].T.copy()
        pa = idx[:, pair_a]                                    # (n, 5)
        pb = idx[:, pair_b]
        prow = np.stack([pa, pa, pb, pb], axis=2)              # (n, 5, 4)
        pcol = np.stack([pa, pb, pa, pb], axis=2)
        sel, self.pjac_idx = _flat_scatter(prow, pcol, size, self.jac_base[:, :, None])
        self.pjac_src, self.pjac_sign = _signed_gather(sel, _PAIR_SIGNS)
        sel, self.pres_idx = _flat_res_scatter(np.stack([pa, pb], axis=2),
                                               self.node_base[:, :, None])
        self.pres_src, self.pres_sign = _signed_gather(sel, _HISTORY_SIGNS)

    # -- model evaluation ------------------------------------------------
    def _bias(self, xg: np.ndarray):
        """Orientation, body effect and smoothed overdrive for every device."""
        nvd, nvg, nvs, nvb = xg[self.gather] * self.sign
        fwd = nvd >= nvs
        src = np.where(fwd, nvs, nvd)                          # effective source
        vgs = nvg - src
        vds = np.abs(nvd - nvs)   # nvd - nvs forward, nvs - nvd (its exact negation) reversed
        vsb = src - nvb
        body = self.phi + vsb
        sq = np.sqrt(np.maximum(body, 0.05))
        vth = self.vto + self.gamma * (sq - self.sqrt_phi)

        vov = vgs - vth
        s = np.sqrt(vov * vov + self.four_delta_sq)
        vov_eff = 0.5 * (vov + s)
        return fwd, vds, body, sq, vov, s, vov_eff

    def evaluate(self, xg: np.ndarray):
        """Orientation and stamp table of every device.

        Returns ``(fwd, table)``.  In the forward orientation (``fwd``)
        ``table`` rows 0-3 hold the drain current's derivatives wrt (vd, vg,
        vs, vb) (polarity signs cancel) and row 4 the drain current; rows
        5-9 are their exact negations.  A reversed device's drain current is
        row 9 and its derivatives are rows (7, 6, 5, 8).  ``table`` is a
        workspace overwritten by the next call.
        """
        fwd, vds, body, sq, vov, s, vov_eff = self._bias(xg)
        dvth = np.where(body < 0.05, 0.0, self.half_gamma / sq)
        dvov_eff = 0.5 * (1.0 + vov / s)

        vdsat = vov_eff
        r = vds / vdsat
        r4 = r ** 4
        one_p = 1.0 + r4
        vdse = vds / one_p ** 0.25
        dvdse_dvds = one_p ** -1.25
        dvdse_dvdsat = (r ** 5) * dvdse_dvds

        clm = 1.0 + self.lam * vds
        f = vov_eff * vdse - 0.5 * vdse * vdse
        ids = self.k * f * clm

        k_clm = self.k * clm
        did_dvdse = k_clm * (vov_eff - vdse)
        did_dvov = k_clm * vdse + did_dvdse * dvdse_dvdsat
        dd, dg, ds, db, current = self._table_rows
        np.add(self.klam * f, did_dvdse * dvdse_dvds, out=dd)  # did_dvds
        np.multiply(did_dvov, dvov_eff, out=dg)                # did_dvgs
        np.multiply(dg, dvth, out=db)                          # -did_dvsb, exactly
        np.subtract(-dg - dd, db, out=ds)
        np.multiply(self.sign, ids, out=current)
        np.negative(*self._table_halves)
        return fwd, self._table

    def static_values(self, xg: np.ndarray):
        fwd, _ = self.evaluate(xg)
        values = self._table_flat[np.where(fwd[self.stamp_dev], self.stamp_fwd,
                                           self.stamp_rev)]
        return values[:self.n_jac], values[self.n_jac:]

    def capacitances(self, xg: np.ndarray) -> np.ndarray:
        """Meyer capacitances (n, 5) at the given node voltages.

        Needs only the region (overdrive, vds vs vdsat, orientation), so it
        stops after :meth:`_bias` instead of running the full current model
        and reads each device's row of the baked region table.
        """
        fwd, vds, _, _, vov, _, vdsat = self._bias(xg)
        code = (vov < 0.0) * 4 + (vds >= vdsat) * 2 + fwd     # cutoff, saturated, forward
        return self._cap_table[code[:, None] * self._cap_index.size + self._cap_index]

    def pair_voltages(self, xg: np.ndarray) -> np.ndarray:
        return xg[self.pair_a_gather] - xg[self.pair_b_gather]

    def companions(self, caps, v, i, dt, trap):
        """Companion conductances/currents for the state (start of step)."""
        geq, ieq = _companion(caps, v, i, dt, trap)
        live = caps > 0.0
        return np.where(live, geq, 0.0), np.where(live, ieq, 0.0)

    def updated_currents(self, caps, v_old, i_old, v_new, dt, trap):
        i_new, = _by_method(trap, _trapezoidal_current, _euler_current,
                            caps, v_old, i_old, v_new, dt)
        return np.where(caps > 0.0, i_new, 0.0)


class _DiodeBatch(_Batch):
    """Vectorized Shockley diode with the same pnjlim-style linearization."""

    def __init__(self, entries, size: int):
        super().__init__(entries, size)
        devices = self.devices
        self.isat = np.array([dev.i_s for dev in devices])
        self.vte = np.array([dev._vte for dev in devices])
        self.vcrit = np.array([dev._vcrit for dev in devices])
        exp_crit = np.exp(self.vcrit / self.vte)
        self.g0 = self.isat / self.vte * exp_crit
        self.i0 = self.isat * (exp_crit - 1.0)
        self.pair_scatter(_CURRENT_SIGNS)

    def static_values(self, xg: np.ndarray):
        vd = self.voltages(xg)
        lin = vd > self.vcrit
        neg = vd < -20.0 * self.vte
        safe = np.where(lin | neg, 0.0, vd)
        expv = np.exp(safe / self.vte)
        current = np.where(lin, self.i0 + self.g0 * (vd - self.vcrit),
                           np.where(neg, -self.isat, self.isat * (expv - 1.0)))
        g = np.where(lin, self.g0,
                     np.where(neg, 1e-15, self.isat / self.vte * expv))
        return g[self.jac_src] * self.jac_sign, current[self.res_src] * self.res_sign


class _CapacitorBatch(_Batch):
    """Vectorized companion stamps for exact-class linear capacitors."""

    def __init__(self, entries, size: int):
        super().__init__(entries, size)
        self.value = np.array([dev.value for dev in self.devices])
        self.pair_scatter(_HISTORY_SIGNS)

    def companions(self, v, i, dt, trap):
        return _companion(self.value, v, i, dt, trap)

    def updated_currents(self, v_old, i_old, v_new, dt, trap):
        geq, ieq = self.companions(v_old, i_old, dt, trap)
        return geq * v_new - ieq


class _TransientState:
    """Integration state owned by the plan during one transient run."""

    __slots__ = ("mos_caps", "mos_v", "mos_i", "cap_v", "cap_i", "generic")

    def __init__(self, mos_caps, mos_v, mos_i, cap_v, cap_i, generic):
        self.mos_caps = mos_caps
        self.mos_v = mos_v
        self.mos_i = mos_i
        self.cap_v = cap_v
        self.cap_i = cap_i
        self.generic = generic  # one list of per-device states per system


def _topology(compiled) -> tuple:
    """What two circuits must share to be stacked in one plan."""
    return (compiled.size, compiled.num_nodes,
            tuple((type(device), device.nonlinear, device.dynamic, idx)
                  for device, idx in compiled.devices_with_indices()))


class StampPlan:
    """Precompiled assembly program for ``B`` topology-identical circuits.

    ``StampPlan(compiled)`` is the one-design plan that
    :meth:`~repro.spice.netlist.CompiledCircuit.plan` caches;
    ``StampPlan([compiled_1, ..., compiled_B])`` stacks ``B`` designs of one
    netlist topology (same devices, classes and node indices; any values).
    Assembly methods take the iterates as ``X`` of shape ``(B, n)`` and
    return the stacked workspace ``(J, F)`` of shapes ``(B, n, n)`` and
    ``(B, n)``; :attr:`systems` holds one :class:`System` view per design.
    """

    def __init__(self, compiled):
        circuits = list(compiled) if isinstance(compiled, (list, tuple)) else [compiled]
        if not circuits:
            raise ValueError("a stamping plan needs at least one compiled circuit")
        first = circuits[0]
        signature = _topology(first)
        if any(_topology(other) != signature for other in circuits[1:]):
            raise ValueError("stacked stamping plans need topology-identical circuits")
        B = self.batch = len(circuits)
        size = self.size = first.size
        self.circuits = circuits
        self._num_nodes = first.num_nodes
        self.J = np.zeros((B, size, size))
        self.F = np.zeros((B, size))
        self._J_flat = self.J.ravel()
        self._F_flat = self.F.ravel()
        self._F_rows = list(self.F)
        self.systems = [System(size, self.J[b], self.F[b]) for b in range(B)]
        self._xg = np.zeros(B * size + 1)  # stacked x plus a trailing ground zero
        self._x0 = np.zeros(size)
        self._diag_flat = (np.arange(B)[:, None] * size * size
                           + np.arange(self._num_nodes) * (size + 1)).ravel()

        mos, diodes, caps, linear = [], [], [], []
        generic_nonlinear, generic_dynamic = [], []
        vsources, isources = [], []
        for pos, device in enumerate(first.circuit.devices):
            if device.nonlinear:
                if type(device) is MOSFET:
                    mos.append(pos)
                elif type(device) is Diode:
                    diodes.append(pos)
                else:
                    generic_nonlinear.append(pos)
            else:
                linear.append(pos)
            if device.dynamic:
                if type(device) is MOSFET:
                    pass  # Meyer caps handled by the MOSFET batch
                elif type(device) is Capacitor:
                    caps.append(pos)
                else:
                    generic_dynamic.append(pos)
            if isinstance(device, VoltageSource):
                vsources.append(pos)
            elif isinstance(device, CurrentSource):
                isources.append(pos)

        def entries(positions):
            return [[(c.circuit.devices[p], c.indices[p]) for p in positions]
                    for c in circuits]

        self._mos = _MOSFETBatch(entries(mos), size) if mos else None
        self._diodes = _DiodeBatch(entries(diodes), size) if diodes else None
        self._caps = _CapacitorBatch(entries(caps), size) if caps else None
        self._vectorized = [batch for batch in (self._mos, self._diodes) if batch is not None]
        self._generic_nonlinear = entries(generic_nonlinear)  # per-iteration fallback
        self._generic_dynamic = entries(generic_dynamic)      # per-step affine capture

        # Bake the linear devices once: constant Jacobian + constant residual
        # offset, captured at x = 0 with source_scale = 0 so independent-source
        # values stay out of the bake (they are re-read every assembly).
        self._J_lin = np.zeros((B, size, size))
        self._c_lin = np.zeros((B, size))
        for b, system in enumerate(entries(linear)):
            scratch = System(size, self._J_lin[b], self._c_lin[b])
            scratch.source_scale = 0.0
            scratch.time = None
            for device, idx in system:
                device.stamp_static(scratch, self._x0, idx)
        self._J_lin_rows = list(self._J_lin)

        # Independent sources, system-major.  Voltage sources own distinct
        # branch rows; current-source terms keep their per-source order
        # (``f[a] += i`` then ``f[b] -= i``) through one ordered ``add.at``.
        self._vsources = [dev for system in entries(vsources) for dev, _ in system]
        self._vrows = np.array([b * size + idx.branches[0]
                                for b, system in enumerate(entries(vsources))
                                for _, idx in system], dtype=np.intp)
        self._isources = [dev for system in entries(isources) for dev, _ in system]
        terms = [(b * size + node, pos, sign)
                 for b, system in enumerate(entries(isources))
                 for pos, (_, idx) in enumerate(system, start=b * len(isources))
                 for node, sign in zip(idx.nodes, (1.0, -1.0)) if node >= 0]
        self._irows = np.array([t[0] for t in terms], dtype=np.intp)
        self._iterm = np.array([t[1] for t in terms], dtype=np.intp)
        self._isign = np.array([t[2] for t in terms])

        # Per-step transient bake targets.
        self._J_step = np.zeros((B, size, size))
        self._c_step = np.zeros((B, size))
        self._J_step_rows = list(self._J_step)
        self._J_step_flat = self._J_step.ravel()
        self._c_step_flat = self._c_step.ravel()
        self._step_sources = None
        self._dyn_J = self._dyn_f = self._dyn_systems = None
        if generic_dynamic:
            self._dyn_J = np.zeros((B, size, size))
            self._dyn_f = np.zeros((B, size))
            self._dyn_systems = [System(size, self._dyn_J[b], self._dyn_f[b])
                                 for b in range(B)]

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    def _source_terms(self, scale: float, times) -> tuple[np.ndarray, np.ndarray]:
        """Voltage-source levels and signed current-source terms.

        Levels are read fresh from the devices (``dc_sweep`` swaps their
        waveforms between solves); :meth:`_apply_sources` scatters them.
        """
        per_system = len(self._vsources) // self.batch
        volts = np.array([scale * device.voltage_at(times[pos // per_system])
                          for pos, device in enumerate(self._vsources)])
        per_system = len(self._isources) // self.batch
        amps = np.array([scale * device.current_at(times[pos // per_system])
                         for pos, device in enumerate(self._isources)])
        return volts, self._isign * amps[self._iterm]

    def _apply_sources(self, terms) -> None:
        volts, currents = terms
        if len(volts):
            self._F_flat[self._vrows] -= volts
        if len(currents):
            np.add.at(self._F_flat, self._irows, currents)

    def _stamp_nonlinear(self, X: np.ndarray, xg: np.ndarray) -> None:
        for batch in self._vectorized:
            jac, res = batch.static_values(xg)
            np.add.at(self._J_flat, batch.jac_idx, jac)
            np.add.at(self._F_flat, batch.res_idx, res)
        for sys, x, system in zip(self.systems, X, self._generic_nonlinear):
            for device, idx in system:
                device.stamp_static(sys, x, idx)

    def _gather(self, X: np.ndarray) -> np.ndarray:
        xg = self._xg
        xg[:-1] = X.ravel()
        return xg

    def _stacked(self, X) -> np.ndarray:
        return X if X.ndim == 2 else X.reshape(self.batch, self.size)

    def _linear_residual(self, J_rows: list, X: np.ndarray) -> None:
        """``F = J @ x`` one system at a time (``gemv`` rounding)."""
        for J_b, x, F_b in zip(J_rows, X, self._F_rows):
            np.matmul(J_b, x, out=F_b)

    # ------------------------------------------------------------------
    # DC / operating-point assembly
    # ------------------------------------------------------------------
    def assemble_static(self, X: np.ndarray, *, gmin: float = 0.0,
                        source_scale: float = 1.0,
                        time: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """One Newton assembly: ``J[:] = J_lin`` + vectorized nonlinear scatter."""
        X = self._stacked(X)
        for sys in self.systems:
            sys.source_scale = source_scale
            sys.time = time
        J, F = self.J, self.F
        J[:] = self._J_lin
        self._linear_residual(self._J_lin_rows, X)
        F += self._c_lin
        self._apply_sources(self._source_terms(source_scale, (time,) * self.batch))
        self._stamp_nonlinear(X, self._gather(X))
        if gmin:
            nn = self._num_nodes
            self._J_flat[self._diag_flat] += gmin
            F[:, :nn] += gmin * X[:, :nn]
        return J, F

    # ------------------------------------------------------------------
    # Transient stepping
    # ------------------------------------------------------------------
    def init_transient(self, X: np.ndarray) -> _TransientState:
        """Integration state at the initial solutions (mirrors ``init_state``)."""
        X = self._stacked(X)
        xg = self._gather(X)
        mos_caps = mos_v = mos_i = None
        if self._mos is not None:
            mos_caps = self._mos.capacitances(xg)
            mos_v = self._mos.pair_voltages(xg)
            mos_i = np.zeros_like(mos_v)
        cap_v = cap_i = None
        if self._caps is not None:
            cap_v = self._caps.voltages(xg)
            cap_i = np.zeros_like(cap_v)
        generic = [[device.init_state(x, idx) for device, idx in system]
                   for x, system in zip(X, self._generic_dynamic)]
        return _TransientState(mos_caps, mos_v, mos_i, cap_v, cap_i, generic)

    @staticmethod
    def _step_columns(batch, dts, methods, column: bool = False):
        """Per-device step size and trapezoidal flag of the owning system.

        ``dts``/``methods`` come from :meth:`_uniform`: a value shared by
        every system stays a scalar (always so for a one-design plan), which
        keeps the companion arithmetic identical to the scalar formulas.
        """
        dt, trap = dts, methods
        if isinstance(dts, list):
            dt = np.asarray(dts, dtype=np.float64)[batch.system]
            dt = dt[:, None] if column else dt
        if isinstance(methods, list):
            trap = np.array([m == "trapezoidal" for m in methods])[batch.system]
            trap = trap[:, None] if column else trap
        return dt, trap

    @staticmethod
    def _uniform(dts, methods):
        """``(dt, trap)`` scalars where every system shares them, else the lists."""
        if dts.count(dts[0]) == len(dts):
            dts = dts[0]
        if methods.count(methods[0]) == len(methods):
            methods = methods[0] == "trapezoidal"
        return dts, methods

    def begin_step(self, state: _TransientState, times, dts, methods, *,
                   gmin: float = 1e-12) -> None:
        """Bake the affine (linear + companion) part of one transient step.

        ``times``/``dts``/``methods`` give every system's step end time, step
        size and integration method.
        """
        t0 = perf_counter()
        J, J_flat = self._J_step, self._J_step_flat
        c, c_flat = self._c_step, self._c_step_flat
        J[:] = self._J_lin
        c[:] = self._c_lin
        # The floating-node gmin rides in J_step, so J_step @ x carries its
        # residual term too.
        J_flat[self._diag_flat] += gmin
        step = self._uniform(dts, methods)
        if self._mos is not None:
            mos = self._mos
            dt, trap = self._step_columns(mos, *step, column=True)
            geq, ieq = mos.companions(state.mos_caps, state.mos_v, state.mos_i, dt, trap)
            np.add.at(J_flat, mos.pjac_idx, geq.ravel()[mos.pjac_src] * mos.pjac_sign)
            np.add.at(c_flat, mos.pres_idx, ieq.ravel()[mos.pres_src] * mos.pres_sign)
        if self._caps is not None:
            caps = self._caps
            dt, trap = self._step_columns(caps, *step)
            geq, ieq = caps.companions(state.cap_v, state.cap_i, dt, trap)
            np.add.at(J_flat, caps.jac_idx, geq[caps.jac_src] * caps.jac_sign)
            np.add.at(c_flat, caps.res_idx, ieq[caps.res_src] * caps.res_sign)
        if self._dyn_systems is not None:
            self._dyn_J[:] = 0.0
            self._dyn_f[:] = 0.0
            for b, system in enumerate(self._generic_dynamic):
                for (device, idx), dev_state in zip(system, state.generic[b]):
                    if dev_state is not None:
                        device.stamp_dynamic(self._dyn_systems[b], self._x0, idx,
                                             dev_state, dts[b], methods[b])
            J += self._dyn_J
            c += self._dyn_f
        for sys, time in zip(self.systems, times):
            sys.source_scale = 1.0
            sys.time = time
        self._step_sources = self._source_terms(1.0, times)  # fixed for the whole step
        profile.add("assemble_s", perf_counter() - t0)

    def assemble_transient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Newton assembly within the step prepared by :meth:`begin_step`."""
        X = self._stacked(X)
        self.J[:] = self._J_step
        self._linear_residual(self._J_step_rows, X)
        self.F += self._c_step
        self._apply_sources(self._step_sources)
        self._stamp_nonlinear(X, self._gather(X))
        return self.J, self.F

    def advance(self, state: _TransientState, X_new: np.ndarray, dts, methods,
                accepted: np.ndarray) -> None:
        """Advance the integration state of the ``accepted`` systems.

        Rows of ``X_new`` for systems that did not accept a step are ignored.
        """
        X_new = self._stacked(X_new)
        xg = self._gather(X_new)
        mask = None if np.count_nonzero(accepted) == len(accepted) else np.asarray(accepted)
        step = self._uniform(dts, methods)

        def keep(batch, new, old):
            if mask is None:
                return new
            rows = mask[batch.system]
            return np.where(rows[:, None] if new.ndim == 2 else rows, new, old)

        if self._mos is not None:
            mos = self._mos
            dt, trap = self._step_columns(mos, *step, column=True)
            v_new = mos.pair_voltages(xg)
            i_new = mos.updated_currents(state.mos_caps, state.mos_v, state.mos_i,
                                         v_new, dt, trap)
            state.mos_i = keep(mos, i_new, state.mos_i)
            state.mos_v = keep(mos, v_new, state.mos_v)
            state.mos_caps = keep(mos, mos.capacitances(xg), state.mos_caps)
        if self._caps is not None:
            caps = self._caps
            dt, trap = self._step_columns(caps, *step)
            v_new = caps.voltages(xg)
            i_new = caps.updated_currents(state.cap_v, state.cap_i, v_new, dt, trap)
            state.cap_i = keep(caps, i_new, state.cap_i)
            state.cap_v = keep(caps, v_new, state.cap_v)
        for b, system in enumerate(self._generic_dynamic):
            if not accepted[b]:
                continue
            states = state.generic[b]
            for pos, (device, idx) in enumerate(system):
                if states[pos] is not None:
                    states[pos] = device.update_state(X_new[b], idx, states[pos],
                                                      dts[b], methods[b])
