"""Finite-difference oracle for the assembled stamping-plan Jacobian.

The plan-vs-legacy pins cannot catch a wrong derivative that both paths
share, so every circuit's assembled Jacobian is checked against central
differences of its own residual: the DC assembly (``assemble_static``) and
the per-step transient assembly (``assemble_transient`` after
``begin_step``), at random in-bounds designs and random iterates, plus one
stacked three-design plan.
"""

import numpy as np
import pytest

from repro.circuits import (
    CTLE,
    FoldedCascodeOTA,
    InverterChain,
    LDORegulator,
    LevelShifter,
    StrongArmLatch,
)
from repro.spice import StampPlan

CIRCUITS = [FoldedCascodeOTA, StrongArmLatch, InverterChain, LevelShifter,
            LDORegulator, CTLE]
STEP = 1e-6  # central-difference step on every unknown


def _compiled(circuit, rng, count):
    problem = circuit.problem()
    designs = problem.space.sample(rng, count)
    return [circuit.build(problem.space.as_dict(x)).compile() for x in designs]


def _iterate(plan, rng):
    """Node voltages across (and a little beyond) the rails, small branch currents."""
    X = rng.uniform(-0.2, 2.0, (plan.batch, plan.size))
    X[:, plan.circuits[0].num_nodes:] *= 1e-3
    return X


def _check(assemble, X):
    J, F = (a.copy() for a in assemble(X))
    fd = np.empty_like(J)
    for j in range(X.shape[1]):
        up, down = X.copy(), X.copy()
        up[:, j] += STEP
        down[:, j] -= STEP
        F_up = assemble(up)[1].copy()
        F_down = assemble(down)[1]
        fd[:, :, j] = (F_up - F_down) / (2 * STEP)
    # Each entry's error relative to the largest entry of its row: rows mix
    # 1e-12 S gmin with ~1 S source stamps, so one global scale is too loose.
    scale = np.abs(J).max(axis=2, keepdims=True)
    err = np.abs(fd - J) / scale
    assert err.max() < 1e-6, f"worst row-relative FD error {err.max():.2e}"


def _check_plan(plan, rng):
    X = _iterate(plan, rng)
    _check(lambda Z: plan.assemble_static(Z, gmin=1e-9), X)
    state = plan.init_transient(X)
    B = plan.batch
    methods = ["trapezoidal", "backward_euler", "trapezoidal"][:B]
    plan.begin_step(state, [1e-9] * B, [4e-11 * (b + 1) for b in range(B)], methods)
    _check(plan.assemble_transient, X)


@pytest.mark.parametrize("circuit", CIRCUITS, ids=[c.__name__ for c in CIRCUITS])
def test_plan_jacobian_matches_finite_differences(circuit):
    rng = np.random.default_rng(2024)
    for compiled in _compiled(circuit(), rng, 2):
        _check_plan(StampPlan(compiled), rng)


def test_stacked_plan_jacobian_and_per_design_identity():
    rng = np.random.default_rng(77)
    compileds = _compiled(StrongArmLatch(), rng, 3)
    stacked = StampPlan(compileds)
    _check_plan(stacked, rng)
    # The stacked assembly is each design's own plan, bit for bit.
    X = _iterate(stacked, rng)
    J, F = (a.copy() for a in stacked.assemble_static(X, gmin=1e-9))
    for b, compiled in enumerate(compileds):
        J_b, F_b = StampPlan(compiled).assemble_static(X[b], gmin=1e-9)
        np.testing.assert_array_equal(J[b], J_b[0])
        np.testing.assert_array_equal(F[b], F_b[0])


def test_stacked_plan_rejects_different_topologies():
    latch = StrongArmLatch().build(StrongArmLatch().nominal()).compile()
    ota = FoldedCascodeOTA().build(FoldedCascodeOTA().nominal()).compile()
    with pytest.raises(ValueError, match="topology"):
        StampPlan([latch, ota])
