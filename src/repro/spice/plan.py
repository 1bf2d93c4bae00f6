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

Numerical equivalence with the legacy path (same stamps, different summation
order) is pinned by ``tests/spice/test_stamp_plan.py``.  The legacy path
stays available through :func:`set_stamping_mode`/:func:`stamping` (or the
``REPRO_SPICE_STAMPING=legacy`` environment variable) and is what the
hot-path benchmark reports as "before".
"""

from __future__ import annotations

import os
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
_MODE = os.environ.get("REPRO_SPICE_STAMPING", "plan")
if _MODE not in _MODES:  # pragma: no cover - env misconfiguration
    _MODE = "plan"

_THETA_DT = TRAP_THETA  # alias: companion theta shared with the devices
_PAIR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_RES_SIGNS = np.array([-1.0, 1.0])


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


def _columns(*columns: np.ndarray) -> np.ndarray:
    """``np.stack(columns, axis=1)`` without its per-call Python overhead."""
    out = np.empty((len(columns[0]), len(columns)))
    for j, column in enumerate(columns):
        out[:, j] = column
    return out


def _by_method(trap, trapezoidal, euler) -> tuple:
    """Evaluate each system's companion formula (both return tuples).

    ``trap`` is one bool when every system steps with the same integration
    method (only that formula runs), else a per-device mask: both formulas
    run and each element takes its own system's, so the values match a
    one-method evaluation exactly.
    """
    if isinstance(trap, bool):
        return trapezoidal() if trap else euler()
    return tuple(np.where(trap, a, b) for a, b in zip(trapezoidal(), euler()))


def _companion(cap, v, i, dt, trap) -> tuple:
    """Companion conductance and history current of capacitances ``cap``."""
    def trapezoidal():
        geq = cap / (_THETA_DT * dt)
        return geq, geq * v + (1.0 - _THETA_DT) / _THETA_DT * i

    def euler():
        geq = cap / dt
        return geq, geq * v

    return _by_method(trap, trapezoidal, euler)


class _Batch:
    """Device entries of every system, concatenated system-major.

    ``entries`` holds one ``[(device, index), ...]`` list per system, with
    the same devices at the same positions in each.  Node indices become
    offsets into the stacked gather vector (``system * size + node``, ground
    -> the trailing zero slot), the residual (``system * size + row``) and
    the flattened ``(B, size, size)`` Jacobian.
    """

    def __init__(self, entries, size: int):
        flat = [entry for system in entries for entry in system]
        self.devices = [dev for dev, _ in flat]
        self.system = np.repeat(np.arange(len(entries)), len(entries[0]))
        idx = np.array([e.nodes for _, e in flat], dtype=np.intp)
        self.node_base = (self.system * size)[:, None]
        self.jac_base = (self.system * size * size)[:, None]
        self.gather = np.where(idx < 0, len(entries) * size, idx + self.node_base)
        self.idx = idx
        self.size = size

    def pair_scatter(self):
        """Scatter for two-terminal stamps (a, a) (a, b) (b, a) (b, b)."""
        a, b = self.idx[:, 0], self.idx[:, 1]
        rows = np.stack([a, a, b, b], axis=1)
        cols = np.stack([a, b, a, b], axis=1)
        self.jac_sel, self.jac_idx = _flat_scatter(rows, cols, self.size, self.jac_base)
        self.res_sel, self.res_idx = _flat_res_scatter(self.idx, self.node_base)


class _MOSFETBatch(_Batch):
    """Vectorized square-law model + stamps for the exact-class MOSFETs.

    Mirrors ``MOSFET._ids``/``terminal_current``/``_capacitances`` term by
    term so plan and legacy paths agree to summation-order rounding.
    """

    def __init__(self, entries, size: int):
        super().__init__(entries, size)
        devices, idx = self.devices, self.idx
        models = [dev.model for dev in devices]
        self.sign = np.array([1.0 if m.polarity == "n" else -1.0 for m in models])
        self.k = np.array([dev._k for dev in devices])
        self.lam = np.array([dev._lam for dev in devices])
        self.vto = np.array([m.vto for m in models])
        self.gamma = np.array([m.gamma for m in models])
        self.phi = np.array([m.phi for m in models])
        self.sqrt_phi = np.sqrt(self.phi)
        self.smooth = np.array([m.smooth for m in models])
        # Capacitance building blocks (constant per device).
        self.cox_total = np.array([m.cox * d.w * d.l * d.m for m, d in zip(models, devices)])
        self.ovl_s = np.array([m.cgso * d.w * d.m for m, d in zip(models, devices)])
        self.ovl_d = np.array([m.cgdo * d.w * d.m for m, d in zip(models, devices)])
        self.cj_diff = np.array([m.cj * d.w * 3.0 * m.lref * d.m
                                 for m, d in zip(models, devices)])

        # Static scatter: rows (d, s) x cols (d, g, s, b), then residual (d, s).
        rows = np.repeat(idx[:, [0, 2]], 4, axis=1)            # d d d d s s s s
        cols = np.tile(idx, (1, 2))                            # d g s b d g s b
        self.jac_sel, self.jac_idx = _flat_scatter(rows, cols, size, self.jac_base)
        self.res_sel, self.res_idx = _flat_res_scatter(idx[:, [0, 2]], self.node_base)

        # Meyer capacitor pairs (g,s) (g,d) (g,b) (d,b) (s,b).
        pairs = MOSFET._CAP_PAIRS
        self.pair_a_cols = np.array([p[0] for p in pairs])
        self.pair_b_cols = np.array([p[1] for p in pairs])
        pa = idx[:, self.pair_a_cols]                          # (n, 5)
        pb = idx[:, self.pair_b_cols]
        prow = np.stack([pa, pa, pb, pb], axis=2)              # (n, 5, 4)
        pcol = np.stack([pa, pb, pa, pb], axis=2)
        self.pjac_sel, self.pjac_idx = _flat_scatter(prow, pcol, size,
                                                     self.jac_base[:, :, None])
        self.pres_sel, self.pres_idx = _flat_res_scatter(np.stack([pa, pb], axis=2),
                                                         self.node_base[:, :, None])

    # -- model evaluation ------------------------------------------------
    def _bias(self, xg: np.ndarray):
        """Orientation, body effect and smoothed overdrive for every device."""
        v = xg[self.gather]                                    # (n, 4)
        nv = self.sign[:, None] * v
        nvd, nvg, nvs, nvb = nv[:, 0], nv[:, 1], nv[:, 2], nv[:, 3]
        fwd = nvd >= nvs
        vgs = np.where(fwd, nvg - nvs, nvg - nvd)
        vds = np.where(fwd, nvd - nvs, nvs - nvd)
        vsb = np.where(fwd, nvs - nvb, nvd - nvb)

        arg = np.maximum(self.phi + vsb, 0.05)
        sq = np.sqrt(arg)
        vth = self.vto + self.gamma * (sq - self.sqrt_phi)

        delta = self.smooth
        vov = vgs - vth
        s = np.sqrt(vov * vov + 4.0 * delta * delta)
        vov_eff = 0.5 * (vov + s)
        return fwd, vds, vsb, sq, vov, s, vov_eff

    def evaluate(self, xg: np.ndarray):
        """Terminal currents and derivatives for every device."""
        fwd, vds, vsb, sq, vov, s, vov_eff = self._bias(xg)
        dvth = np.where((self.phi + vsb < 0.05) | (self.gamma == 0.0),
                        0.0, self.gamma / (2.0 * sq))
        dvov_eff = 0.5 * (1.0 + vov / s)

        vdsat = vov_eff
        r = vds / vdsat
        r4 = r ** 4
        one_p = 1.0 + r4
        u = one_p ** 0.25
        vdse = vds / u
        dvdse_dvds = one_p ** -1.25
        dvdse_dvdsat = (r ** 5) * dvdse_dvds

        clm = 1.0 + self.lam * vds
        f = vov_eff * vdse - 0.5 * vdse * vdse
        ids = self.k * f * clm

        did_dvdse = self.k * clm * (vov_eff - vdse)
        did_dvov = self.k * clm * vdse + did_dvdse * dvdse_dvdsat
        did_dvgs = did_dvov * dvov_eff
        did_dvds = self.k * self.lam * f + did_dvdse * dvdse_dvds
        did_dvsb = -did_dvov * dvov_eff * dvth

        signed = self.sign * ids
        current = np.where(fwd, signed, -signed)
        # Terminal derivatives wrt (vd, vg, vs, vb); polarity signs cancel.
        # The reverse orientation is a signed permutation of the forward one:
        # (dg+dd-db, -dg, -dd, db) == -(fwd[2], fwd[1], fwd[0], fwd[3]).
        forward = _columns(did_dvds, did_dvgs,
                           -did_dvgs - did_dvds + did_dvsb, -did_dvsb)
        derivs = np.where(fwd[:, None], forward, -forward[:, [2, 1, 0, 3]])
        return current, derivs

    def static_values(self, xg: np.ndarray):
        current, derivs = self.evaluate(xg)
        jac = np.concatenate([derivs, -derivs], axis=1).ravel()[self.jac_sel]
        res = _columns(current, -current).ravel()[self.res_sel]
        return jac, res

    def capacitances(self, xg: np.ndarray) -> np.ndarray:
        """Meyer capacitances (n, 5) at the given node voltages.

        Needs only the region (overdrive, vds vs vdsat, orientation), so it
        stops after :meth:`_bias` instead of running the full current model.
        """
        fwd, vds, _, _, vov, _, vdsat = self._bias(xg)
        cutoff = vov < 0.0
        saturation = ~cutoff & (vds >= vdsat)
        cgs = np.where(cutoff, self.ovl_s,
                       np.where(saturation, (2.0 / 3.0) * self.cox_total + self.ovl_s,
                                0.5 * self.cox_total + self.ovl_s))
        cgd = np.where(cutoff | saturation, self.ovl_d,
                       0.5 * self.cox_total + self.ovl_d)
        cgb = np.where(cutoff, self.cox_total, 0.0)
        cgs, cgd = (np.where(fwd, cgs, cgd), np.where(fwd, cgd, cgs))
        return _columns(cgs, cgd, cgb, self.cj_diff, self.cj_diff)

    def pair_voltages(self, xg: np.ndarray) -> np.ndarray:
        v = xg[self.gather]
        return v[:, self.pair_a_cols] - v[:, self.pair_b_cols]

    def companions(self, caps, v, i, dt, trap):
        """Companion conductances/currents for the state (start of step)."""
        geq, ieq = _companion(caps, v, i, dt, trap)
        live = caps > 0.0
        return np.where(live, geq, 0.0), np.where(live, ieq, 0.0)

    def updated_currents(self, caps, v_old, i_old, v_new, dt, trap):
        def trapezoidal():
            geq = caps / (_THETA_DT * dt)
            return (geq * (v_new - v_old) - (1.0 - _THETA_DT) / _THETA_DT * i_old,)

        def euler():
            return (caps / dt * (v_new - v_old),)

        i_new, = _by_method(trap, trapezoidal, euler)
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
        self.pair_scatter()

    def static_values(self, xg: np.ndarray):
        v = xg[self.gather]
        vd = v[:, 0] - v[:, 1]
        lin = vd > self.vcrit
        neg = vd < -20.0 * self.vte
        safe = np.where(lin | neg, 0.0, vd)
        expv = np.exp(safe / self.vte)
        current = np.where(lin, self.i0 + self.g0 * (vd - self.vcrit),
                           np.where(neg, -self.isat, self.isat * (expv - 1.0)))
        g = np.where(lin, self.g0,
                     np.where(neg, 1e-15, self.isat / self.vte * expv))
        jac = (g[:, None] * _PAIR_SIGNS).ravel()[self.jac_sel]
        res = _columns(current, -current).ravel()[self.res_sel]
        return jac, res


class _CapacitorBatch(_Batch):
    """Vectorized companion stamps for exact-class linear capacitors."""

    def __init__(self, entries, size: int):
        super().__init__(entries, size)
        self.value = np.array([dev.value for dev in self.devices])
        self.pair_scatter()

    def voltages(self, xg: np.ndarray) -> np.ndarray:
        v = xg[self.gather]
        return v[:, 0] - v[:, 1]

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
    def _source_values(self, scale: float, times) -> tuple[np.ndarray, np.ndarray]:
        """Independent-source levels, read fresh from the devices."""
        per_system = len(self._vsources) // self.batch
        volts = np.array([scale * device.voltage_at(times[pos // per_system])
                          for pos, device in enumerate(self._vsources)])
        per_system = len(self._isources) // self.batch
        amps = np.array([scale * device.current_at(times[pos // per_system])
                         for pos, device in enumerate(self._isources)])
        return volts, amps

    def _apply_sources(self, F: np.ndarray, values) -> None:
        volts, amps = values
        F_flat = F.ravel()
        if len(volts):
            F_flat[self._vrows] -= volts
        if len(self._irows):
            np.add.at(F_flat, self._irows, self._isign * amps[self._iterm])

    def _stamp_nonlinear(self, X: np.ndarray, xg: np.ndarray) -> None:
        J_flat = self.J.ravel()
        F_flat = self.F.ravel()
        for batch in (self._mos, self._diodes):
            if batch is not None:
                jac, res = batch.static_values(xg)
                np.add.at(J_flat, batch.jac_idx, jac)
                np.add.at(F_flat, batch.res_idx, res)
        for sys, x, system in zip(self.systems, X, self._generic_nonlinear):
            for device, idx in system:
                device.stamp_static(sys, x, idx)

    def _gather(self, X: np.ndarray) -> np.ndarray:
        xg = self._xg
        xg[:-1] = X.ravel()
        return xg

    def _stacked(self, X) -> np.ndarray:
        return X if X.ndim == 2 else X.reshape(self.batch, self.size)

    def _linear_residual(self, J_base: np.ndarray, X: np.ndarray) -> None:
        """``F = J_base @ x`` one system at a time (``gemv`` rounding)."""
        for b in range(self.batch):
            np.matmul(J_base[b], X[b], out=self.F[b])

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
        self._linear_residual(self._J_lin, X)
        F += self._c_lin
        self._apply_sources(F, self._source_values(source_scale, (time,) * self.batch))
        self._stamp_nonlinear(X, self._gather(X))
        if gmin:
            nn = self._num_nodes
            J.ravel()[self._diag_flat] += gmin
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
        J = self._J_step
        c = self._c_step
        J[:] = self._J_lin
        c[:] = self._c_lin
        # The floating-node gmin rides in J_step, so J_step @ x carries its
        # residual term too.
        J.ravel()[self._diag_flat] += gmin
        J_flat = J.ravel()
        c_flat = c.ravel()
        step = self._uniform(dts, methods)
        if self._mos is not None:
            dt, trap = self._step_columns(self._mos, *step, column=True)
            geq, ieq = self._mos.companions(state.mos_caps, state.mos_v, state.mos_i,
                                            dt, trap)
            np.add.at(J_flat, self._mos.pjac_idx,
                      (geq[:, :, None] * _PAIR_SIGNS).ravel()[self._mos.pjac_sel])
            np.add.at(c_flat, self._mos.pres_idx,
                      (ieq[:, :, None] * _RES_SIGNS).ravel()[self._mos.pres_sel])
        if self._caps is not None:
            dt, trap = self._step_columns(self._caps, *step)
            geq, ieq = self._caps.companions(state.cap_v, state.cap_i, dt, trap)
            np.add.at(J_flat, self._caps.jac_idx,
                      (geq[:, None] * _PAIR_SIGNS).ravel()[self._caps.jac_sel])
            np.add.at(c_flat, self._caps.res_idx,
                      (ieq[:, None] * _RES_SIGNS).ravel()[self._caps.res_sel])
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
        self._step_sources = self._source_values(1.0, times)
        profile.add("assemble_s", perf_counter() - t0)

    def assemble_transient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Newton assembly within the step prepared by :meth:`begin_step`."""
        X = self._stacked(X)
        self.J[:] = self._J_step
        self._linear_residual(self._J_step, X)
        self.F += self._c_step
        self._apply_sources(self.F, self._step_sources)
        self._stamp_nonlinear(X, self._gather(X))
        return self.J, self.F

    def advance(self, state: _TransientState, X_new: np.ndarray, dts, methods,
                accepted: np.ndarray) -> None:
        """Advance the integration state of the ``accepted`` systems.

        Rows of ``X_new`` for systems that did not accept a step are ignored.
        """
        X_new = self._stacked(X_new)
        xg = self._gather(X_new)
        every = bool(np.all(accepted))
        step = self._uniform(dts, methods)

        def keep(batch, new, old):
            if every:
                return new
            mask = np.asarray(accepted)[batch.system]
            return np.where(mask[:, None] if new.ndim == 2 else mask, new, old)

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
