"""Bit-identity pins for the stamping plan's vectorized MOSFET kernel.

The plan's MOSFET batch bakes constants, orients devices with one
effective-source select and reads every stamp through a signed gather.  Each
of those rewrites must leave the IEEE results unchanged, so this file keeps
the straightforward term-by-term NumPy arithmetic as a reference and asserts
the kernel *bitwise* equal to it (``assert_array_equal``, no tolerance) over
random biases: the bias quantities, terminal currents and derivatives, the
Meyer capacitances, the integration-state update and the per-step companion
bake.  The biases cover cutoff, triode and saturation, both orientations and
the body-effect clamp, on models with and without body effect, in a
one-design plan and in a stacked three-design plan with mixed step sizes and
integration methods.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.spice import Circuit, StampPlan
from repro.spice.devices.base import TRAP_THETA
from repro.spice.devices.mosfet import MOSFET, NMOS_7, NMOS_180, PMOS_7, PMOS_180, MOSModel

NO_BODY = MOSModel("nmos_nobody", "n", gamma=0.0)
PAIR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
RES_SIGNS = np.array([-1.0, 1.0])
GMIN = 1e-12

# (drain, gate, source, bulk) of each device; the last two have grounded
# terminals, so their ground rows and columns drop out of the scatter.
TERMINALS = [("a", "b", "c", "d"), ("b", "c", "d", "a"), ("c", "d", "a", "b"),
             ("d", "a", "b", "c"), ("a", "b", "0", "0"), ("0", "c", "d", "e")]


def _circuit(models, scale):
    c = Circuit("mosfet kernel")
    c.vsource("V1", "e", "0", 1.2)
    c.resistor("R1", "a", "e", 10e3)
    c.capacitor("C1", "b", "0", 50e-15)
    for i, (nodes, model) in enumerate(zip(TERMINALS, models)):
        c.mosfet(f"M{i}", *nodes, model, (2.0 + i) * 1e-6 * scale, (0.2 + 0.1 * i) * 1e-6)
    return c.compile()


ONE = [[NMOS_180, PMOS_180, NMOS_7, PMOS_7, NO_BODY, NMOS_180]]
STACKED = ONE + [[NO_BODY, NO_BODY, PMOS_180, NMOS_180, PMOS_7, NMOS_7],
                 [PMOS_180, NMOS_7, NO_BODY, PMOS_7, NMOS_180, NO_BODY]]


def _plan(designs):
    return StampPlan([_circuit(models, 1.0 + 0.5 * b) for b, models in enumerate(designs)])


# -- the term-by-term reference ------------------------------------------------
class _Reference:
    """The plain arithmetic of the plan's MOSFET batch, one step at a time."""

    def __init__(self, plan):
        batch = plan._mos
        devices = batch.devices
        models = [d.model for d in devices]
        self.sign = np.array([1.0 if m.polarity == "n" else -1.0 for m in models])
        self.k = np.array([d._k for d in devices])
        self.lam = np.array([d._lam for d in devices])
        self.vto = np.array([m.vto for m in models])
        self.gamma = np.array([m.gamma for m in models])
        self.phi = np.array([m.phi for m in models])
        self.smooth = np.array([m.smooth for m in models])
        self.cox_total = np.array([m.cox * d.w * d.l * d.m for m, d in zip(models, devices)])
        self.ovl_s = np.array([m.cgso * d.w * d.m for m, d in zip(models, devices)])
        self.ovl_d = np.array([m.cgdo * d.w * d.m for m, d in zip(models, devices)])
        self.cj_diff = np.array([m.cj * d.w * 3.0 * m.lref * d.m
                                 for m, d in zip(models, devices)])
        size, B = plan.size, plan.batch
        self.idx = batch.idx
        system = np.repeat(np.arange(B), len(devices) // B)
        self.gather = np.where(self.idx < 0, B * size, self.idx + (system * size)[:, None])
        jac_base = (system * size * size)[:, None]
        node_base = (system * size)[:, None]

        def scatter(rows, cols, base):
            keep = (rows >= 0) & (cols >= 0)
            sel = np.flatnonzero(keep.ravel())
            return sel, (base + rows * size + cols).ravel()[sel]

        def res_scatter(rows, base):
            sel = np.flatnonzero((rows >= 0).ravel())
            return sel, (base + rows).ravel()[sel]

        idx = self.idx
        self.jac = scatter(np.repeat(idx[:, [0, 2]], 4, axis=1), np.tile(idx, (1, 2)), jac_base)
        self.res = res_scatter(idx[:, [0, 2]], node_base)
        pairs = MOSFET._CAP_PAIRS
        self.pa = np.array([p[0] for p in pairs])
        self.pb = np.array([p[1] for p in pairs])
        pa, pb = idx[:, self.pa], idx[:, self.pb]
        self.pjac = scatter(np.stack([pa, pa, pb, pb], axis=2),
                            np.stack([pa, pb, pa, pb], axis=2), jac_base[:, :, None])
        self.pres = res_scatter(np.stack([pa, pb], axis=2), node_base[:, :, None])
        self.system = system

    def bias(self, xg):
        v = xg[self.gather]
        nv = self.sign[:, None] * v
        nvd, nvg, nvs, nvb = nv[:, 0], nv[:, 1], nv[:, 2], nv[:, 3]
        fwd = nvd >= nvs
        vgs = np.where(fwd, nvg - nvs, nvg - nvd)
        vds = np.where(fwd, nvd - nvs, nvs - nvd)
        vsb = np.where(fwd, nvs - nvb, nvd - nvb)
        arg = np.maximum(self.phi + vsb, 0.05)
        sq = np.sqrt(arg)
        vth = self.vto + self.gamma * (sq - np.sqrt(self.phi))
        delta = self.smooth
        vov = vgs - vth
        s = np.sqrt(vov * vov + 4.0 * delta * delta)
        vov_eff = 0.5 * (vov + s)
        return fwd, vds, vsb, sq, vov, s, vov_eff

    def evaluate(self, xg):
        fwd, vds, vsb, sq, vov, s, vov_eff = self.bias(xg)
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
        forward = np.stack([did_dvds, did_dvgs, -did_dvgs - did_dvds + did_dvsb, -did_dvsb],
                           axis=1)
        derivs = np.where(fwd[:, None], forward, -forward[:, [2, 1, 0, 3]])
        return current, derivs

    def static_values(self, xg):
        current, derivs = self.evaluate(xg)
        jac = np.concatenate([derivs, -derivs], axis=1).ravel()[self.jac[0]]
        res = np.stack([current, -current], axis=1).ravel()[self.res[0]]
        return jac, res

    def capacitances(self, xg):
        fwd, vds, _, _, vov, _, vdsat = self.bias(xg)
        cutoff = vov < 0.0
        saturation = ~cutoff & (vds >= vdsat)
        cgs = np.where(cutoff, self.ovl_s,
                       np.where(saturation, (2.0 / 3.0) * self.cox_total + self.ovl_s,
                                0.5 * self.cox_total + self.ovl_s))
        cgd = np.where(cutoff | saturation, self.ovl_d, 0.5 * self.cox_total + self.ovl_d)
        cgb = np.where(cutoff, self.cox_total, 0.0)
        cgs, cgd = np.where(fwd, cgs, cgd), np.where(fwd, cgd, cgs)
        return np.stack([cgs, cgd, cgb, self.cj_diff, self.cj_diff], axis=1)

    def pair_voltages(self, xg):
        v = xg[self.gather]
        return v[:, self.pa] - v[:, self.pb]

    def _columns(self, dts, methods):
        dt = np.array(dts)[self.system][:, None]
        trap = np.array([m == "trapezoidal" for m in methods])[self.system][:, None]
        return dt, trap

    def updated_currents(self, caps, v_old, i_old, v_new, dts, methods):
        dt, trap = self._columns(dts, methods)
        geq = caps / (TRAP_THETA * dt)
        trapezoidal = geq * (v_new - v_old) - (1.0 - TRAP_THETA) / TRAP_THETA * i_old
        euler = caps / dt * (v_new - v_old)
        return np.where(caps > 0.0, np.where(trap, trapezoidal, euler), 0.0)

    def bake(self, plan, caps, v, i, dts, methods):
        """The MOSFET part of ``begin_step`` on top of the plan's own J_lin/c_lin."""
        dt, trap = self._columns(dts, methods)
        geq_t = caps / (TRAP_THETA * dt)
        ieq_t = geq_t * v + (1.0 - TRAP_THETA) / TRAP_THETA * i
        geq_e = caps / dt
        ieq_e = geq_e * v
        live = caps > 0.0
        geq = np.where(live, np.where(trap, geq_t, geq_e), 0.0)
        ieq = np.where(live, np.where(trap, ieq_t, ieq_e), 0.0)
        J = plan._J_lin.copy()
        c = plan._c_lin.copy()
        J.ravel()[plan._diag_flat] += GMIN
        np.add.at(J.ravel(), self.pjac[1], (geq[:, :, None] * PAIR_SIGNS).ravel()[self.pjac[0]])
        np.add.at(c.ravel(), self.pres[1], (ieq[:, :, None] * RES_SIGNS).ravel()[self.pres[0]])
        return J, c


# -- random biases -------------------------------------------------------------
def _iterates(plan, rng, count):
    """Node voltages from well below ground to above the rails."""
    for _ in range(count):
        X = rng.uniform(-1.2, 2.4, (plan.batch, plan.size))
        X[:, plan.circuits[0].num_nodes:] *= 1e-3
        yield X


def _xg(X):
    return np.append(X.ravel(), 0.0)


@pytest.fixture(params=[ONE, STACKED], ids=["one-design", "stacked-three"])
def plan(request):
    return _plan(request.param)


def test_bias_currents_and_derivatives_match_reference(plan):
    ref = _Reference(plan)
    mos = plan._mos
    seen = {"cutoff": 0, "triode": 0, "saturation": 0, "forward": 0, "reverse": 0,
            "clamp": 0, "no_body": 0}
    for X in _iterates(plan, np.random.default_rng(5), 60):
        xg = _xg(X)
        fwd, vds, vsb, sq, vov, s, vov_eff = ref.bias(xg)
        got = mos._bias(xg)
        for mine, theirs in zip(got[:2] + got[3:], (fwd, vds, sq, vov, s, vov_eff)):
            assert_array_equal(mine, theirs)
        assert_array_equal(got[2], ref.phi + vsb)

        current, derivs = ref.evaluate(xg)
        got_fwd, table = mos.evaluate(xg)
        assert_array_equal(got_fwd, fwd)
        assert_array_equal(np.where(fwd, table[4], table[9]), current)
        assert_array_equal(np.where(fwd, table[:4], table[[7, 6, 5, 8]]), derivs.T)
        for mine, theirs in zip(mos.static_values(xg), ref.static_values(xg)):
            assert_array_equal(mine, theirs)

        cutoff = vov < 0.0
        seen["cutoff"] += np.count_nonzero(cutoff)
        seen["triode"] += np.count_nonzero(~cutoff & (vds < vov_eff))
        seen["saturation"] += np.count_nonzero(~cutoff & (vds >= vov_eff))
        seen["forward"] += np.count_nonzero(fwd)
        seen["reverse"] += np.count_nonzero(~fwd)
        seen["clamp"] += np.count_nonzero(ref.phi + vsb < 0.05)
        seen["no_body"] += np.count_nonzero(ref.gamma == 0.0)
    assert all(seen.values()), seen
    # The scatter targets are the reference's, in the same order.
    assert_array_equal(mos.jac_idx, ref.jac[1])
    assert_array_equal(mos.res_idx, ref.res[1])


def test_capacitances_state_update_and_companion_bake_match_reference(plan):
    ref = _Reference(plan)
    mos = plan._mos
    rng = np.random.default_rng(9)
    B = plan.batch
    draws = list(_iterates(plan, rng, 40))
    for X_old, X_new in zip(draws[::2], draws[1::2]):
        xg_old, xg_new = _xg(X_old), _xg(X_new)
        state = plan.init_transient(X_old)
        assert_array_equal(state.mos_caps, ref.capacitances(xg_old))
        assert_array_equal(state.mos_v, ref.pair_voltages(xg_old))
        assert_array_equal(mos.capacitances(xg_new), ref.capacitances(xg_new))
        dts = [1e-10 * (1 + b) for b in range(B)]
        methods = ["backward_euler", "trapezoidal", "trapezoidal"][:B]
        caps, v, i = state.mos_caps, state.mos_v, state.mos_i
        plan.advance(state, X_new, dts, methods, np.ones(B, dtype=bool))
        v_new = ref.pair_voltages(xg_new)
        assert_array_equal(state.mos_v, v_new)
        assert_array_equal(state.mos_i, ref.updated_currents(caps, v, i, v_new, dts, methods))
        assert_array_equal(state.mos_caps, ref.capacitances(xg_new))

        # Bake the next step with trapezoidal rule everywhere (one scalar
        # method) and with the per-system mix (the masked path).
        for step_methods in (["trapezoidal"] * B, methods[::-1]):
            expected = ref.bake(plan, state.mos_caps, state.mos_v, state.mos_i,
                                dts, step_methods)
            plan.begin_step(state, [2e-9] * B, dts, step_methods, gmin=GMIN)
            if plan._caps is not None:  # the linear capacitor's own companion
                ccaps = plan._caps
                dt = np.array(dts)[ccaps.system]
                trap = np.array([m == "trapezoidal" for m in step_methods])[ccaps.system]
                geq = np.where(trap, ccaps.value / (TRAP_THETA * dt), ccaps.value / dt)
                ieq = np.where(trap, geq * state.cap_v
                               + (1.0 - TRAP_THETA) / TRAP_THETA * state.cap_i,
                               geq * state.cap_v)
                a, b = ccaps.idx[:, 0], ccaps.idx[:, 1]
                keep = (np.stack([a, a, b, b], 1) >= 0) & (np.stack([a, b, a, b], 1) >= 0)
                np.add.at(expected[0].ravel(), ccaps.jac_idx,
                          (geq[:, None] * PAIR_SIGNS).ravel()[np.flatnonzero(keep)])
                np.add.at(expected[1].ravel(), ccaps.res_idx,
                          (ieq[:, None] * RES_SIGNS).ravel()[np.flatnonzero(ccaps.idx >= 0)])
            assert_array_equal(plan._J_step, expected[0])
            assert_array_equal(plan._c_step, expected[1])


@pytest.mark.parametrize("designs", [ONE, STACKED], ids=["one-design", "stacked-three"])
def test_bias_reuse_is_keyed_on_the_iterate_not_on_call_order(designs):
    """``advance`` biases the new iterate and the next step's first assembly
    reuses that bias; any other iterate (a rejected step's retry, a later
    Newton iteration) must assemble exactly as a plan that never saw it."""
    plan = _plan(designs)
    B = plan.batch
    rng = np.random.default_rng(3)
    X0, X_a, X_b = (rng.uniform(-0.5, 2.0, (B, plan.size)) for _ in range(3))
    dts, methods = [1e-10] * B, ["trapezoidal"] * B
    state = plan.init_transient(X0)
    plan.begin_step(state, [1e-10] * B, dts, ["backward_euler"] * B)
    plan.advance(state, X_a, dts, ["backward_euler"] * B, np.ones(B, dtype=bool))
    plan.begin_step(state, [2e-10] * B, dts, methods)

    def fresh_assembly(X):
        fresh = _plan(designs)
        fresh.init_transient(X0)
        fresh.begin_step(state, [2e-10] * B, dts, methods)
        return fresh.assemble_transient(X)

    for X in (X_b, X_b, X_a, X_a, X_b):
        J, F = (a.copy() for a in plan.assemble_transient(X))
        J_fresh, F_fresh = fresh_assembly(X)
        assert_array_equal(J, J_fresh)
        assert_array_equal(F, F_fresh)
