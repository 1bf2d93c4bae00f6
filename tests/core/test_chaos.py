"""Seeded fault injection against the fleet: the failure-domain pins.

The acceptance contract of the hardening layer: under *every* injected
fault family — hung worker, worker crash, dropped connection, duplicated
reply, out-of-order reply, corrupt frame, injected straggler — a
two-tenant fleet run completes with histories **bit-identical** to the
serial runs and with zero lost or double-counted simulations.  The faults
are driven by :class:`repro.core.chaos.FaultPlan` through a frame-level
:class:`~repro.core.chaos.ChaosProxy`, so the coordinator under test runs
unmodified production code and every recovery path (chunk deadlines,
bounded requeue, quarantine backoff, request-id discard of late or
duplicated replies) is provoked deterministically.
"""

import threading

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.core import EvalEngine
from repro.core import service
from repro.core.chaos import ChaosProxy, FaultPlan, FaultSpec
from repro.core.fleet import FleetCoordinator
from repro.problems import ConstrainedSphere, Sphere


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan semantics
# ----------------------------------------------------------------------
def test_fault_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultSpec("explode", nth=1)
    with pytest.raises(ValueError, match="exactly one"):
        FaultSpec("hang")  # no trigger
    with pytest.raises(ValueError, match="exactly one"):
        FaultSpec("hang", nth=1, every=2)  # two triggers
    with pytest.raises(ValueError, match="1-based"):
        FaultSpec("hang", nth=0)
    with pytest.raises(ValueError, match="probability"):
        FaultSpec("hang", probability=1.5)


def test_fault_plan_counters_are_exact_and_per_spec():
    plan = FaultPlan([FaultSpec("hang", nth=2),
                      FaultSpec("duplicate", every=3)])
    fired = [[spec.kind for spec in plan.decide("eval")] for _ in range(6)]
    assert fired == [[], ["hang"], ["duplicate"], [], [], ["duplicate"]]
    assert plan.fired == {"hang": 1, "duplicate": 2}
    # op filters count independently: a non-matching frame advances nothing
    plan2 = FaultPlan([FaultSpec("drop", op="eval", nth=1)])
    assert plan2.decide("hello") == []
    assert [s.kind for s in plan2.decide("eval")] == ["drop"]


def test_fault_plan_probability_is_seed_reproducible():
    def draw(seed):
        plan = FaultPlan([FaultSpec("drop", probability=0.5)], seed=seed)
        return [bool(plan.decide("eval")) for _ in range(32)]

    assert draw(7) == draw(7)          # same seed, same schedule
    assert draw(7) != draw(8)          # different seed decorrelates
    assert any(draw(7)) and not all(draw(7))


# ----------------------------------------------------------------------
# proxy passthrough: no faults, no interference
# ----------------------------------------------------------------------
def test_chaos_proxy_passthrough_is_transparent():
    server = service.EvalWorkerServer(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ChaosProxy(server.address, FaultPlan([])) as proxy:
            problem = Sphere(3)
            X = problem.space.sample(np.random.default_rng(0), 7)
            with EvalEngine("remote", hosts=[proxy.address]) as engine:
                np.testing.assert_array_equal(engine.evaluate_batch(problem, X),
                                              problem.evaluate_batch(X))
    finally:
        server.close()
        thread.join(timeout=5)


def test_chaos_proxy_crash_refuses_new_connections():
    server = service.EvalWorkerServer(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        proxy = ChaosProxy(server.address, FaultPlan([]))
        proxy.crash()
        assert proxy.stopped
        with pytest.raises((ConnectionError, OSError)):
            service.MultiplexedConnection(service.parse_host(proxy.address),
                                          connect_timeout=2.0)
    finally:
        server.close()
        thread.join(timeout=5)


# ----------------------------------------------------------------------
# the acceptance matrix: 2 tenants, 2 workers, one faulted via the proxy
# ----------------------------------------------------------------------
#: (name, plan factory, coordinator kwargs).  ``chunk_timeout`` arms the
#: deadline where the fault would otherwise stall forever (a swallowed or
#: withheld reply); against the injected straggler it is loose enough
#: that the slow host is waited out, never failed over.
FAULT_MATRIX = [
    ("hang", lambda: FaultPlan([FaultSpec("hang", nth=2)]),
     dict(chunk_timeout=1.0)),
    ("crash", lambda: FaultPlan([FaultSpec("crash", nth=3)]), {}),
    ("drop", lambda: FaultPlan([FaultSpec("drop", nth=2)]), {}),
    ("duplicate", lambda: FaultPlan([FaultSpec("duplicate", every=2)]), {}),
    ("reorder", lambda: FaultPlan([FaultSpec("reorder", every=3)]),
     dict(chunk_timeout=1.0)),
    ("corrupt", lambda: FaultPlan([FaultSpec("corrupt", nth=4)]), {}),
    ("straggler", lambda: FaultPlan([FaultSpec("delay", every=2,
                                               delay_s=0.1)]),
     dict(chunk_timeout=5.0)),
]


@pytest.mark.parametrize("name,plan_factory,coord_kwargs",
                         FAULT_MATRIX, ids=[c[0] for c in FAULT_MATRIX])
def test_two_tenant_fleet_bit_identical_under_faults(name, plan_factory,
                                                     coord_kwargs):
    serial_a = RandomSearch(Sphere(3), 20, seed=1).run()
    serial_b = RandomSearch(ConstrainedSphere(2), 16, seed=2).run()

    servers, threads = [], []
    for _ in range(2):
        server = service.EvalWorkerServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
    plan = plan_factory()
    proxy = ChaosProxy(servers[0].address, plan)
    try:
        hosts = [proxy.address, servers[1].address]
        with FleetCoordinator(hosts=hosts, poll_interval=0.05,
                              **coord_kwargs) as fleet:
            engine_a = fleet.engine("study-a", priority=2.0)
            engine_b = fleet.engine("study-b")
            histories, errors = {}, {}

            def run(key, problem, budget, seed, engine):
                try:
                    histories[key] = RandomSearch(problem, budget, seed=seed,
                                                  engine=engine).run()
                except Exception as exc:  # surfaced below with context
                    errors[key] = exc

            thread_a = threading.Thread(
                target=run, args=("a", Sphere(3), 20, 1, engine_a))
            thread_b = threading.Thread(
                target=run, args=("b", ConstrainedSphere(2), 16, 2, engine_b))
            thread_a.start()
            thread_b.start()
            thread_a.join(120)
            thread_b.join(120)
            assert not errors, f"fleet run died under {name!r}: {errors}"
            assert "a" in histories and "b" in histories, (
                f"fleet run hung under injected {name!r} fault")
            # zero lost, zero double-counted simulations
            assert engine_a.n_sim_calls == 20
            assert engine_b.n_sim_calls == 16
            stats = fleet.stats()
            assert stats["tenants"]["study-a"]["worker_sims"] == 20
            assert stats["tenants"]["study-b"]["worker_sims"] == 16
            if name == "straggler":
                # a slow but live host is waited out, not failed over
                assert stats["requeues"] == 0, stats
            engine_a.close()
            engine_b.close()
    finally:
        proxy.close()
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=5)

    assert plan.fired.get(FAULT_MATRIX_KIND[name], 0) >= 1, (
        f"the {name!r} fault never fired — the test proved nothing")
    np.testing.assert_array_equal(histories["a"].X, serial_a.X)
    np.testing.assert_array_equal(histories["a"].F, serial_a.F)
    np.testing.assert_array_equal(histories["b"].X, serial_b.X)
    np.testing.assert_array_equal(histories["b"].F, serial_b.F)


#: test id -> the FaultSpec kind whose firing proves the fault happened.
FAULT_MATRIX_KIND = {
    "hang": "hang", "crash": "crash", "drop": "drop",
    "duplicate": "duplicate", "reorder": "reorder", "corrupt": "corrupt",
    "straggler": "delay",
}
