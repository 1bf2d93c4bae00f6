"""Fleet control plane: registry, fair scheduling, elasticity, metrics.

Load-bearing contracts pinned here:

* two concurrent Studies sharing one 2-worker fleet finish with histories
  *bit-identical* to their serial runs — including while a worker is
  killed mid-run (the chunk requeue absorbs it: no ServiceError, no lost
  or duplicated engine simulations);
* the scheduler is starvation-free and priority-weighted at chunk
  granularity;
* workers join and age out via heartbeats, and queued work waits for the
  first worker instead of failing;
* the registry server doubles as the metrics endpoint (per-tenant
  sims/sec + cache hit-rate).
"""

import itertools
import socket
import threading
import time

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.core import EvalEngine
from repro.core import service
from repro.core.fleet import (FleetCoordinator, RegistryServer,
                              WorkerRegistry, _DispatchState, _HostPump, _Job)
from repro.experiments import run_trials
from repro.problems import ConstrainedSphere, LatencyProblem, Sphere


def _rpc(conn, msg):
    service.send_msg(conn, msg)
    return service.recv_msg(conn)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_heartbeat_ageout_and_static_pins():
    registry = WorkerRegistry(timeout=0.25)
    registry.register("worker:1")
    registry.register("pinned:1", static=True)
    assert registry.live() == ["pinned:1", "worker:1"]
    time.sleep(0.4)
    assert registry.live() == ["pinned:1"]  # heartbeats stopped -> aged out
    assert registry.n_drops == 1
    registry.register("worker:1")           # a beat re-joins it
    assert "worker:1" in registry.live()
    registry.deregister("pinned:1")
    assert registry.live() == ["worker:1"]


def test_registry_server_ops():
    registry = WorkerRegistry(timeout=5.0)
    server = RegistryServer(registry)
    try:
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            hello = _rpc(conn, {"op": "hello"})
            assert hello["ok"] and hello["protocol"] == service.PROTOCOL_VERSION
            assert _rpc(conn, {"op": "register", "address": "w:1"})["ok"]
            assert _rpc(conn, {"op": "workers"})["workers"] == ["w:1"]
            assert _rpc(conn, {"op": "heartbeat", "address": "w:1"})["ok"]
            assert _rpc(conn, {"op": "stats"})["ok"]
            assert _rpc(conn, {"op": "deregister", "address": "w:1"})["ok"]
            assert _rpc(conn, {"op": "workers"})["workers"] == []
            assert not _rpc(conn, {"op": "frobnicate"})["ok"]
    finally:
        server.close()


# ----------------------------------------------------------------------
# scheduler: fairness + priority weighting (no workers needed)
# ----------------------------------------------------------------------
def _enqueue_jobs(coordinator, tenant, n):
    """Queue n one-design chunks for a tenant, bypassing a real dispatch."""
    state = _DispatchState("00", "", np.zeros((n, 1)))
    state.remaining = n
    jobs = [_Job(tenant, state, i, i + 1) for i in range(n)]
    with coordinator._cond:
        coordinator._tenants[tenant].queue.extend(jobs)
        coordinator._cond.notify_all()
    return state


def test_fair_round_robin_interleaves_two_tenants():
    # Starvation-freedom: however much work each tenant queues, chunks are
    # served in strict alternation at equal priority — tenant B never waits
    # behind the whole of tenant A's backlog.
    with FleetCoordinator() as fleet:
        engine_a = fleet.engine("A")
        engine_b = fleet.engine("B")
        _enqueue_jobs(fleet, "A", 6)
        _enqueue_jobs(fleet, "B", 6)
        stop = threading.Event()
        order = [fleet._next_job(stop).tenant for _ in range(12)]
        assert order == ["A", "B"] * 6
        engine_a.close()
        engine_b.close()


def test_priority_weights_chunk_shares():
    # Weighted deficit round-robin: priority 2 vs 1 serves two chunks of
    # the heavy tenant per chunk of the light one — and the light tenant
    # still appears in every 3-chunk window (no starvation).
    with FleetCoordinator() as fleet:
        engine_a = fleet.engine("heavy", priority=2.0)
        engine_b = fleet.engine("light", priority=1.0)
        _enqueue_jobs(fleet, "heavy", 8)
        _enqueue_jobs(fleet, "light", 4)
        stop = threading.Event()
        order = [fleet._next_job(stop).tenant for _ in range(12)]
        assert order.count("heavy") == 8 and order.count("light") == 4
        first9 = order[:9]
        assert first9.count("heavy") == 6 and first9.count("light") == 3
        for lo in range(0, 9, 3):  # every window serves the light tenant
            assert "light" in order[lo:lo + 3]
        engine_a.close()
        engine_b.close()


def test_aborted_dispatch_jobs_are_discarded_not_served():
    # Chunks of an aborted dispatch are dropped by the scheduler (with the
    # credit refunded), never handed to a pump.
    with FleetCoordinator() as fleet:
        engine = fleet.engine("A")
        state = _enqueue_jobs(fleet, "A", 3)
        state.abort("test abort")
        with fleet._cond:
            assert fleet._pick_locked() is None
            assert not fleet._tenants["A"].queue
        engine.close()


# ----------------------------------------------------------------------
# end-to-end: two tenants on two in-process workers + metrics endpoint
# ----------------------------------------------------------------------
def test_two_tenants_bit_identical_histories_and_metrics(two_local_servers):
    hosts = [server.address for server in two_local_servers]
    serial_a = RandomSearch(Sphere(3), 20, seed=1).run()
    serial_b = RandomSearch(ConstrainedSphere(2), 16, seed=2).run()
    with FleetCoordinator(hosts=hosts) as fleet:
        metrics = fleet.listen()
        engine_a = fleet.engine("study-a", priority=2.0)
        engine_b = fleet.engine("study-b")
        histories = {}

        def run(name, problem, budget, seed, engine):
            histories[name] = RandomSearch(problem, budget, seed=seed,
                                           engine=engine).run()

        thread_a = threading.Thread(
            target=run, args=("a", Sphere(3), 20, 1, engine_a))
        thread_b = threading.Thread(
            target=run, args=("b", ConstrainedSphere(2), 16, 2, engine_b))
        thread_a.start()
        thread_b.start()
        thread_a.join(120)
        thread_b.join(120)
        assert "a" in histories and "b" in histories
        # the metrics endpoint reports per-tenant accounting over the wire
        with socket.create_connection((metrics.host, metrics.port),
                                      timeout=5) as conn:
            reply = _rpc(conn, {"op": "stats"})
        assert reply["ok"]
        tenants = reply["stats"]["tenants"]
        assert tenants["study-a"]["worker_sims"] == 20
        assert tenants["study-b"]["worker_sims"] == 16
        assert tenants["study-a"]["sims_per_sec"] > 0
        assert tenants["study-a"]["cache_hit_rate"] == 0.0
        assert tenants["study-a"]["priority"] == 2.0
        assert reply["stats"]["n_workers"] == 2
        workers = reply["stats"]["workers"]
        for entry in workers.values():
            assert set(entry) == {"chunks", "sims", "slots"}
        assert sum(entry["sims"] for entry in workers.values()) == 36
        engine_a.close()
        engine_b.close()
    np.testing.assert_array_equal(histories["a"].X, serial_a.X)
    np.testing.assert_array_equal(histories["a"].F, serial_a.F)
    np.testing.assert_array_equal(histories["b"].X, serial_b.X)
    np.testing.assert_array_equal(histories["b"].F, serial_b.F)


def test_tenant_close_detaches_without_touching_fleet(two_local_servers):
    hosts = [server.address for server in two_local_servers]
    problem = Sphere(2)
    X = problem.space.sample(np.random.default_rng(0), 5)
    with FleetCoordinator(hosts=hosts) as fleet:
        engine_1 = fleet.engine("t1")
        np.testing.assert_array_equal(engine_1.evaluate_batch(problem, X),
                                      problem.evaluate_batch(X))
        engine_1.close()  # detaches the tenant only
        X_fresh = problem.space.sample(np.random.default_rng(1), 5)
        with pytest.raises(RuntimeError):
            engine_1.evaluate_batch(problem, X_fresh)
        engine_2 = fleet.engine("t1")  # the name is reusable after detach
        np.testing.assert_array_equal(engine_2.evaluate_batch(problem, X),
                                      problem.evaluate_batch(X))
        engine_2.close()


def test_run_trials_fleet_param_matches_serial(two_local_servers):
    hosts = [server.address for server in two_local_servers]
    factory = lambda p, b, s: RandomSearch(p, b, s)
    kwargs = dict(budget=8, n_trials=3, base_seed=0)
    serial = run_trials(factory, lambda: Sphere(3), **kwargs)
    with FleetCoordinator(hosts=hosts) as fleet:
        shared = run_trials(factory, lambda: Sphere(3), workers=3,
                            fleet=fleet, **kwargs)
        with pytest.raises(ValueError, match="not both"):
            run_trials(factory, lambda: Sphere(3), fleet=fleet,
                       engine_factory=EvalEngine, **kwargs)
    for a, b in zip(serial, shared):
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.F, b.F)


def test_pump_bug_fails_dispatch_without_dropping_host(two_local_servers,
                                                     monkeypatch):
    # Only an OSError is a transport failure.  Any other exception on the
    # pump path aborts just its dispatch, naming the error; the host is
    # neither quarantined nor its chunk requeued, so it keeps serving.
    real_eval = _HostPump._eval
    calls = itertools.count()

    def eval_failing_once(self, conn, job):
        if next(calls) == 0:  # atomic under the GIL: exactly one raises
            raise RuntimeError("pump bug")
        return real_eval(self, conn, job)

    monkeypatch.setattr(_HostPump, "_eval", eval_failing_once)
    hosts = [server.address for server in two_local_servers]
    problem = Sphere(2)
    X = problem.space.sample(np.random.default_rng(4), 6)
    with FleetCoordinator(hosts=hosts) as fleet:
        with fleet.engine("buggy") as engine:
            with pytest.raises(service.ServiceError,
                               match="RuntimeError: pump bug"):
                engine.evaluate_batch(problem, X)
            stats = fleet.stats()
            assert stats["n_workers"] == 2
            assert stats["requeues"] == 0
            X_next = problem.space.sample(np.random.default_rng(5), 6)
            np.testing.assert_array_equal(engine.evaluate_batch(problem, X_next),
                                          problem.evaluate_batch(X_next))


# ----------------------------------------------------------------------
# elasticity: heartbeat join/drop with real worker processes
# ----------------------------------------------------------------------
def _wait_for_workers(fleet, n, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if fleet.stats()["n_workers"] == n:
            return True
        time.sleep(0.05)
    return False


def test_worker_killed_mid_run_is_absorbed_bit_identical():
    # The acceptance pin: kill one of two heartbeat-registered workers in
    # the middle of a Study; the chunk requeue absorbs it (no ServiceError)
    # and the history is bit-identical to the serial run, with no lost or
    # duplicated engine-level simulations.
    problem_factory = lambda: LatencyProblem(Sphere(3), 0.05)
    serial = RandomSearch(problem_factory(), 30, seed=7).run()
    fleet = FleetCoordinator(heartbeat_timeout=1.5, poll_interval=0.1)
    registry = fleet.listen()
    procs = []
    try:
        for _ in range(2):
            proc, _host = service.spawn_local_worker(
                register=registry.address, heartbeat=0.2)
            procs.append(proc)
        assert _wait_for_workers(fleet, 2)
        engine = fleet.engine("victim-study")
        result = {}

        def run():
            result["history"] = RandomSearch(problem_factory(), 30, seed=7,
                                             engine=engine).run()

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.3)       # mid-run: chunks are in flight on both hosts
        procs[0].kill()
        thread.join(120)
        assert "history" in result, "study did not survive the worker kill"
        np.testing.assert_array_equal(result["history"].X, serial.X)
        np.testing.assert_array_equal(result["history"].F, serial.F)
        assert engine.n_sim_calls == 30  # nothing lost, nothing duplicated
        # the dead worker ages out / is dropped; the survivor stays
        assert _wait_for_workers(fleet, 1, timeout=15.0)
        engine.close()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except Exception:
                proc.kill()
        fleet.close()


def test_elastic_join_serves_work_queued_before_any_worker():
    # Chunks dispatched into an empty fleet wait (elasticity, not error)
    # until the first worker registers, then complete normally.
    fleet = FleetCoordinator(heartbeat_timeout=2.0, poll_interval=0.1)
    registry = fleet.listen()
    engine = fleet.engine("early-bird")
    problem = Sphere(2)
    X = problem.space.sample(np.random.default_rng(0), 5)
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(F=engine.evaluate_batch(problem, X)))
    thread.start()
    time.sleep(0.3)
    assert thread.is_alive()  # queued, waiting for capacity — not failed
    proc = None
    try:
        proc, _host = service.spawn_local_worker(register=registry.address,
                                                 heartbeat=0.2)
        thread.join(60)
        assert not thread.is_alive()
        np.testing.assert_array_equal(result["F"], problem.evaluate_batch(X))
    finally:
        engine.close()
        fleet.close()
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=10)


# ----------------------------------------------------------------------
# zero live workers: wait on a registry fleet, fail on a registry-less one
# ----------------------------------------------------------------------
def test_default_tenant_still_waits_on_empty_fleet():
    # The elasticity contract: with no worker yet, chunks wait for one to
    # register, they are never evaluated in the coordinator's process.
    with FleetCoordinator(poll_interval=0.05) as fleet:
        engine = fleet.engine("patient")
        problem = Sphere(2)
        X = problem.space.sample(np.random.default_rng(0), 3)
        result = {}

        def run():
            try:
                result["F"] = engine.evaluate_batch(problem, X)
            except Exception as exc:
                result["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.6)  # many poll intervals: still queued
        assert thread.is_alive() and not result
        engine.close()   # detach aborts the stranded dispatch
        thread.join(30)
    assert "F" not in result and "error" in result


def test_pinned_fleet_without_registry_raises_once_every_pin_failed():
    # Without listen() nothing but the pins can ever serve the fleet: once
    # the only pin has failed, a dispatch raises ServiceError instead of
    # waiting forever.  The join timeout turns a regression into a failure
    # rather than a hung suite.
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        dead = f"127.0.0.1:{placeholder.getsockname()[1]}"
    problem = Sphere(2)
    X = problem.space.sample(np.random.default_rng(1), 3)
    result = {}
    fleet = FleetCoordinator(hosts=[dead], poll_interval=0.05)
    engine = fleet.engine("stranded")

    def run():
        try:
            result["F"] = engine.evaluate_batch(problem, X)
        except Exception as exc:
            result["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=20)
    hung = thread.is_alive()
    fleet.close()  # aborts a stranded dispatch, so the thread always ends
    thread.join(timeout=10)
    engine.close()
    assert not hung, "dispatch hung on a fleet whose only pin is dead"
    assert isinstance(result.get("error"), service.ServiceError)
    assert "failed on all hosts" in str(result["error"])


def test_fleet_rejects_nonpositive_chunk_timeout():
    with pytest.raises(ValueError, match="chunk_timeout"):
        FleetCoordinator(chunk_timeout=0.0)


# ----------------------------------------------------------------------
# worker-side persistent cache (--cache-dir): two-process smoke
# ----------------------------------------------------------------------
def test_worker_cache_dir_two_process_smoke(tmp_path):
    # Worker process 1 populates its disk tier; a *fresh* worker process
    # on the same directory answers every repeat from disk with zero
    # simulations — confirmed through the worker's own stats op.
    problem = Sphere(3)
    X = problem.space.sample(np.random.default_rng(4), 6)

    def run_once():
        proc, host = service.spawn_local_worker(cache_dir=tmp_path)
        try:
            with EvalEngine("remote", hosts=[host]) as engine:
                F = engine.evaluate_batch(problem, X)
            addr = service.parse_host(host)
            with socket.create_connection(addr, timeout=10) as conn:
                stats = _rpc(conn, {"op": "stats"})
            return F, stats
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    F1, stats1 = run_once()
    assert stats1["ok"] and stats1["n_sims"] == 6
    assert stats1["cache_dir"] == str(tmp_path)
    F2, stats2 = run_once()
    assert stats2["n_sims"] == 0       # new process, all answered from disk
    assert stats2["disk_hits"] == 6
    np.testing.assert_array_equal(F1, F2)
