"""Design-batched transients: rows must not depend on batch composition.

``CircuitSizingProblem.evaluate_batch`` simulates a batch's StrongARM
transients in one lock-step run over a stacked stamping plan.  Each
design's row must be bit-identical whether it is simulated alone, inside a
batch, or in a shuffled batch; a design whose simulation fails must get the
failure row without disturbing its neighbours.
"""

import numpy as np
import pytest

from repro.circuits import FoldedCascodeOTA, StrongArmLatch
from repro.core import EvalEngine
from repro.spice import ConvergenceError, transient
from repro.spice.devices.base import Device

CIRCUITS = {"strongarm": StrongArmLatch, "folded_cascode": FoldedCascodeOTA}


def _designs(problem, n=8, seed=11):
    return problem.space.sample(np.random.default_rng(seed), n)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_rows_are_batch_invariant(name):
    problem = CIRCUITS[name]().problem()
    X = _designs(problem)
    alone = np.vstack([problem.evaluate_batch(x[None]) for x in X])
    together = problem.evaluate_batch(X)
    order = np.random.default_rng(3).permutation(len(X))
    shuffled = problem.evaluate_batch(X[order])
    np.testing.assert_array_equal(alone, together)
    np.testing.assert_array_equal(alone[order], shuffled)
    np.testing.assert_array_equal(alone[0], problem.evaluate(X[0]))


def test_serial_engine_equals_process_engine():
    problem = StrongArmLatch().problem()
    X = _designs(problem, seed=12)
    with EvalEngine() as engine:
        serial = engine.evaluate_batch(problem, X)
    with EvalEngine("process", workers=2) as engine:
        pooled = engine.evaluate_batch(problem, X)
    np.testing.assert_array_equal(serial, pooled)


class _Saboteur(Device):
    """A 1 pS load to ground whose conductance turns NaN on demand.

    ``fail_after`` is a time in seconds after which the stamp is NaN
    (``-inf`` poisons the DC operating point too; ``inf`` never fails).
    """

    nonlinear = True

    def __init__(self, name, node, fail_after):
        super().__init__(name, (node, "0"))
        self.fail_after = fail_after

    def stamp_static(self, sys, x, idx):
        time = -np.inf if sys.time is None else sys.time
        g = np.nan if time > self.fail_after else 1e-12
        a = idx.nodes[0]
        sys.add_jac(a, a, g)
        sys.add_res(a, g * x[a])


class _SabotagedLatch(StrongArmLatch):
    """The latch plus a saboteur that fails designs with ``CL_finger == 77``."""

    def __init__(self, fail_after):
        super().__init__()
        self.fail_after = fail_after

    def build(self, params):
        circuit = super().build(params)
        poisoned = round(params["CL_finger"]) == 77
        circuit.add(_Saboteur("XSAB", "q1", self.fail_after if poisoned else np.inf))
        return circuit


@pytest.mark.parametrize("fail_after", [-np.inf, 5e-9], ids=["dc", "mid_transient"])
def test_failing_design_is_isolated(fail_after):
    problem = _SabotagedLatch(fail_after).problem()
    X = _designs(problem, n=4, seed=13)
    X[2, problem.space.names.index("CL_finger")] = 77
    alone = np.vstack([problem.evaluate(x) for x in X])
    together = problem.evaluate_batch(X)
    np.testing.assert_array_equal(together[2], problem.failure_vector())
    np.testing.assert_array_equal(alone, together)
    assert np.all(np.isfinite(together))
    assert not np.array_equal(together[0], problem.failure_vector())


def test_transient_batch_reports_per_design_errors():
    latch = _SabotagedLatch(5e-9)
    good, bad = latch.simulate_batch([latch.nominal(), dict(latch.nominal(), CL_finger=77)])
    assert isinstance(bad["tran"], ConvergenceError)
    alone = latch.simulate_batch([latch.nominal()])[0]["tran"]
    np.testing.assert_array_equal(good["tran"].t, alone.t)
    np.testing.assert_array_equal(good["tran"].solutions, alone.solutions)
    with pytest.raises(ConvergenceError):  # one circuit: the error is raised
        transient(latch.build(dict(latch.nominal(), CL_finger=77)), latch.tran_step, 20e-9)
