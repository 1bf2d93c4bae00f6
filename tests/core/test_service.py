"""Evaluation service: wire protocol, worker servers, remote determinism.

The load-bearing contract mirrors the engine suite: optimizer histories
produced through ``EvalEngine(backend="remote")`` against live worker
server processes are *bit-identical* to ``backend="serial"`` — including on
the folded-cascode SPICE problem — and the coordinator-side cache is the
shared tier, so a design repeated across shards is simulated exactly once
service-wide.

Worker processes are spawned per test module with ``--port 0`` (free
ports); set ``REPRO_SERVICE_HOSTS=host:port,host:port`` to run the same
tests against an externally-started service instead (the CI service smoke
does exactly that).
"""

import json
import os
import socket
import subprocess
import threading

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.circuits import FoldedCascodeOTA
from repro.core import DNNOpt, EvalEngine
from repro.core import service
from repro.experiments import run_trials
from repro.problems import ConstrainedSphere, Sphere

# ----------------------------------------------------------------------
# worker fixtures
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def service_hosts():
    env_hosts = [h.strip() for h in
                 os.environ.get("REPRO_SERVICE_HOSTS", "").split(",") if h.strip()]
    if env_hosts:
        yield env_hosts
        return
    procs, hosts = [], []
    try:
        for _ in range(2):
            proc, host = service.spawn_local_worker()
            procs.append(proc)
            hosts.append(host)
        yield hosts
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


@pytest.fixture()
def local_server():
    """One in-process worker server on a free port (protocol-level tests)."""
    server = service.EvalWorkerServer(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=5)


def _client(server):
    return socket.create_connection((server.host, server.port), timeout=10)


def _roundtrip(conn, msg):
    service.send_msg(conn, msg)
    return service.recv_msg(conn)


def _put_problem(conn, engine, problem):
    import base64
    import pickle
    token = engine._problem_token(problem).hex()
    blob = base64.b64encode(pickle.dumps(problem)).decode("ascii")
    reply = _roundtrip(conn, {"op": "put_problem", "token": token, "blob": blob})
    assert reply["ok"]
    return token


# ----------------------------------------------------------------------
# framing / protocol
# ----------------------------------------------------------------------
def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        msg = {"op": "hello", "x": [1.5, 2.0 ** -52, -0.0], "nested": {"k": [1, 2]}}
        service.send_msg(a, msg)
        assert service.recv_msg(b) == msg
        # several frames back-to-back arrive intact and in order
        for i in range(5):
            service.send_msg(a, {"i": i})
        assert [service.recv_msg(b)["i"] for _ in range(5)] == list(range(5))
    finally:
        a.close()
        b.close()


def test_clean_eof_returns_none():
    a, b = socket.socketpair()
    a.close()
    try:
        assert service.recv_msg(b) is None
    finally:
        b.close()


def test_oversized_frame_rejected():
    a, b = socket.socketpair()
    try:
        a.sendall((service.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ConnectionError):
            service.recv_msg(b)
    finally:
        a.close()
        b.close()


def test_json_roundtrip_preserves_float64_bits():
    rng = np.random.default_rng(0)
    rows = (rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-12, 12, (7, 5)))
    back = np.asarray(json.loads(json.dumps(rows.tolist())), dtype=np.float64)
    np.testing.assert_array_equal(back, rows)  # bit-exact, not approximate


def test_parse_host():
    assert service.parse_host("127.0.0.1:9101") == ("127.0.0.1", 9101)
    assert service.parse_host(" box:80 ") == ("box", 80)
    with pytest.raises(ValueError):
        service.parse_host("9101")


# ----------------------------------------------------------------------
# worker server behaviour
# ----------------------------------------------------------------------
def test_worker_hello_and_unknown_op(local_server):
    with _client(local_server) as conn:
        hello = _roundtrip(conn, {"op": "hello"})
        assert hello["ok"] and hello["protocol"] == service.PROTOCOL_VERSION
        bad = _roundtrip(conn, {"op": "frobnicate"})
        assert not bad["ok"] and "unknown op" in bad["error"]


def test_worker_eval_requires_problem(local_server):
    with _client(local_server) as conn:
        reply = _roundtrip(conn, {"op": "eval", "token": "ff", "X": [[0.0]]})
        assert not reply["ok"] and reply.get("need_problem")


def test_worker_eval_matches_local_evaluation(local_server):
    problem = Sphere(3)
    X = problem.space.sample(np.random.default_rng(1), 6)
    with _client(local_server) as conn:
        token = _put_problem(conn, EvalEngine(), problem)
        reply = _roundtrip(conn, {"op": "eval", "token": token, "X": X.tolist()})
    assert reply["ok"] and reply["n_sims"] == 6
    np.testing.assert_array_equal(np.asarray(reply["F"]), problem.evaluate_batch(X))


def test_worker_survives_bad_request_and_abrupt_disconnect(local_server):
    # A malformed request answers with ok=False instead of killing the shard,
    # and a peer that connects then vanishes doesn't take the server down.
    probe = _client(local_server)
    probe.close()
    with _client(local_server) as conn:
        reply = _roundtrip(conn, {"op": "eval"})  # missing fields
        assert not reply["ok"]
        assert _roundtrip(conn, {"op": "hello"})["ok"]  # still serving


# ----------------------------------------------------------------------
# remote backend: determinism and the shared cache tier
# ----------------------------------------------------------------------
def test_remote_backend_requires_hosts(monkeypatch):
    monkeypatch.delenv("REPRO_SERVICE_HOSTS", raising=False)
    with pytest.raises(ValueError):
        EvalEngine("remote")


def test_remote_batch_matches_direct_evaluation(service_hosts):
    problem = Sphere(4)
    X = problem.space.sample(np.random.default_rng(0), 13)
    with EvalEngine("remote", hosts=service_hosts) as engine:
        np.testing.assert_array_equal(engine.evaluate_batch(problem, X),
                                      problem.evaluate_batch(X))


def test_remote_duplicates_simulated_once_service_wide(service_hosts):
    # 4 unique designs tiled into 12 rows: the coordinator-owned cache tier
    # must dispatch exactly 4 simulations across both shards.
    problem = Sphere(3)
    unique = problem.space.sample(np.random.default_rng(2), 4)
    X = np.vstack([unique] * 3)
    with EvalEngine("remote", hosts=service_hosts) as engine:
        F = engine.evaluate_batch(problem, X)
        assert engine.n_sim_calls == 4
        assert engine.worker_sim_calls == 4
        # a follow-up batch of the same designs never reaches the wire
        engine.evaluate_batch(problem, unique)
        assert engine.worker_sim_calls == 4
    np.testing.assert_array_equal(F[:4], F[4:8])


def test_remote_random_search_history_bit_identical(service_hosts):
    serial = RandomSearch(Sphere(3), 20, seed=5).run()
    with EvalEngine("remote", hosts=service_hosts) as engine:
        remote = RandomSearch(Sphere(3), 20, seed=5, engine=engine).run()
    np.testing.assert_array_equal(serial.X, remote.X)
    np.testing.assert_array_equal(serial.F, remote.F)
    np.testing.assert_array_equal(serial.fom, remote.fom)
    np.testing.assert_array_equal(serial.feasible, remote.feasible)


def test_remote_batched_dnnopt_history_bit_identical(service_hosts):
    def build(problem, engine=None):
        return DNNOpt(problem, 18, 7, n_init=8, n_elite=5, critic_epochs=5,
                      actor_epochs=5, critic_hidden=(16, 16),
                      actor_hidden=(16, 16), max_pseudo=500, batch_size=3,
                      engine=engine)
    serial = build(ConstrainedSphere(3)).run()
    with EvalEngine("remote", hosts=service_hosts) as engine:
        remote = build(ConstrainedSphere(3), engine=engine).run()
    np.testing.assert_array_equal(serial.X, remote.X)
    np.testing.assert_array_equal(serial.F, remote.F)
    np.testing.assert_array_equal(serial.fom, remote.fom)


def test_remote_folded_cascode_history_and_hotpath(service_hosts):
    # The acceptance pin: bit-identical histories on the real SPICE problem,
    # with worker-side hot-path counters aggregated over the wire.
    problem_factory = lambda: FoldedCascodeOTA().problem()
    serial = RandomSearch(problem_factory(), 6, seed=3).run()
    with EvalEngine("remote", hosts=service_hosts) as engine:
        remote = RandomSearch(problem_factory(), 6, seed=3, engine=engine).run()
        report = engine.hotpath_report()
    np.testing.assert_array_equal(serial.X, remote.X)
    np.testing.assert_array_equal(serial.F, remote.F)
    np.testing.assert_array_equal(serial.fom, remote.fom)
    np.testing.assert_array_equal(serial.feasible, remote.feasible)
    assert report["assemble_s"] > 0
    assert report["solve_s"] > 0
    assert report["newton_iterations"] > 0
    assert report["ac_solves"] > 0


def test_run_trials_can_target_running_service(service_hosts):
    # The runner's engine_factory hook: every trial builds its own remote
    # engine against the live service; histories match the serial protocol.
    factory = lambda p, b, s: RandomSearch(p, b, s)
    kwargs = dict(budget=10, n_trials=3, base_seed=4)
    serial = run_trials(factory, lambda: Sphere(3), workers=1, **kwargs)
    remote = run_trials(factory, lambda: Sphere(3), workers=1,
                        engine_factory=lambda: EvalEngine("remote",
                                                          hosts=service_hosts),
                        **kwargs)
    for a, b in zip(serial, remote):
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.F, b.F)
        np.testing.assert_array_equal(a.fom, b.fom)


class BoomSphere(Sphere):
    """Sphere that raises on evaluation (an optimizer-visible error)."""

    def _evaluate(self, x):
        raise ValueError("boom: deterministic evaluation error")


def test_remote_eval_error_is_fatal_not_host_death(local_server):
    # A worker that *rejects* a well-delivered request (the evaluation
    # itself raised) must abort the dispatch with the real error — not be
    # treated as a dead host, cascade through every shard, and surface as
    # "failed on all hosts".
    with EvalEngine("remote", hosts=[local_server.address]) as engine:
        with pytest.raises(RuntimeError, match="rejected.*boom"):
            engine.evaluate_batch(BoomSphere(2), np.zeros((3, 2)))
    # the shard stayed up and keeps serving
    with _client(local_server) as conn:
        assert _roundtrip(conn, {"op": "hello"})["ok"]


def test_remote_reships_problem_after_worker_forgets_it(local_server):
    # Worker restart / LRU eviction between batches: the coordinator sees
    # need_problem, re-ships over the live connection, and the batch
    # completes without the caller noticing.
    problem = Sphere(3)
    X = problem.space.sample(np.random.default_rng(6), 5)
    with EvalEngine("remote", hosts=[local_server.address]) as engine:
        np.testing.assert_array_equal(engine.evaluate_batch(problem, X),
                                      problem.evaluate_batch(X))
        local_server._problems.clear()  # simulate restart/eviction
        X2 = problem.space.sample(np.random.default_rng(7), 5)
        np.testing.assert_array_equal(engine.evaluate_batch(problem, X2),
                                      problem.evaluate_batch(X2))


def test_worker_problem_store_is_bounded(local_server, monkeypatch):
    import base64
    import pickle
    monkeypatch.setattr(service.EvalWorkerServer, "MAX_PROBLEMS", 2)
    with _client(local_server) as conn:
        for i in range(5):
            blob = base64.b64encode(pickle.dumps(Sphere(2))).decode("ascii")
            reply = _roundtrip(conn, {"op": "put_problem", "token": f"{i:02x}",
                                      "blob": blob})
            assert reply["ok"]
    assert len(local_server._problems) == 2  # LRU-evicted, not unbounded


def test_remote_survives_one_dead_host(service_hosts):
    # One bogus shard (nothing listens there): the dispatcher drops it and
    # the surviving hosts finish the batch with identical results.
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        dead = f"127.0.0.1:{placeholder.getsockname()[1]}"
    problem = Sphere(3)
    X = problem.space.sample(np.random.default_rng(5), 9)
    with EvalEngine("remote", hosts=[dead] + list(service_hosts)) as engine:
        F = engine.evaluate_batch(problem, X)
    np.testing.assert_array_equal(F, problem.evaluate_batch(X))


def test_remote_engine_recovers_after_worker_restart_on_same_port():
    # The only worker dies and comes back on the same port: a later batch
    # on the same engine is served once the failed host is retried (a
    # dispatch may fail while the worker is down or its host is still
    # quarantined, so retry until a deadline).
    import sys
    import time
    from pathlib import Path

    proc, host = service.spawn_local_worker()
    problem = Sphere(3)
    try:
        with EvalEngine("remote", hosts=[host]) as engine:
            X = problem.space.sample(np.random.default_rng(13), 4)
            np.testing.assert_array_equal(engine.evaluate_batch(problem, X),
                                          problem.evaluate_batch(X))
            proc.terminate()
            proc.wait(timeout=10)
            env = dict(os.environ)
            env["PYTHONPATH"] = (str(Path(service.__file__).resolve().parents[2])
                                 + os.pathsep + env.get("PYTHONPATH", ""))
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.core.service",
                 "--port", str(service.parse_host(host)[1])],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
            X2 = problem.space.sample(np.random.default_rng(14), 4)
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    F2 = engine.evaluate_batch(problem, X2)
                    break
                except service.ServiceError:
                    assert time.monotonic() < deadline, (
                        "the restarted worker never served a batch")
                    time.sleep(0.1)
        np.testing.assert_array_equal(F2, problem.evaluate_batch(X2))
    finally:
        proc.terminate()
        proc.wait(timeout=10)


# ----------------------------------------------------------------------
# last-host-death / bounded failover (ServiceError) + close() semantics
# ----------------------------------------------------------------------
class _FlakyWorker:
    """Protocol-speaking fake shard: healthy through hello/put_problem,
    then follows a script on eval — ``"die"`` closes the connection
    mid-chunk, ``"hang"`` never replies (until closed)."""

    def __init__(self, behavior: str):
        self.behavior = behavior
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self.eval_requests = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        self._listener.settimeout(0.2)
        conns = []
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conns.append(conn)
            threading.Thread(target=self._session, args=(conn,),
                             daemon=True).start()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    def _session(self, conn):
        def reply(msg, payload):
            # protocol v2: replies to id-carrying requests echo the id
            if msg.get("id") is not None:
                payload = {**payload, "id": msg["id"]}
            service.send_msg(conn, payload)

        try:
            while not self._stop.is_set():
                msg = service.recv_msg(conn)
                if msg is None:
                    return
                op = msg.get("op")
                if op == "hello":
                    reply(msg, {"ok": True,
                                "protocol": service.PROTOCOL_VERSION,
                                "pid": 0, "problems": 0})
                elif op == "put_problem":
                    reply(msg, {"ok": True})
                elif op == "eval":
                    self.eval_requests += 1
                    if self.behavior == "die":
                        conn.close()
                        return
                    while not self._stop.is_set():  # hang
                        self._stop.wait(0.1)
                    return
        except (ConnectionError, OSError):
            return

    def close(self):
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


def test_backoff_delay_is_deterministic_capped_and_jittered():
    # Same (attempt, key) always yields the same delay — retry schedules
    # are reproducible — while distinct keys decorrelate their storms.
    assert service.backoff_delay(3, key="w:1") == service.backoff_delay(3, key="w:1")
    assert service.backoff_delay(3, key="w:1") != service.backoff_delay(3, key="w:2")
    for attempt in range(12):
        delay = service.backoff_delay(attempt, base=0.1, cap=5.0, key="w:1")
        raw = min(5.0, 0.1 * 2 ** attempt)
        assert raw / 2 <= delay <= 5.0  # jitter halves at most, cap holds
    # growth: late attempts sit near the cap, early ones near the base
    assert service.backoff_delay(20, base=0.1, cap=5.0, key="x") > 2.0
    assert service.backoff_delay(0, base=0.1, cap=5.0, key="x") <= 0.1


def test_hung_worker_deadline_raises_service_error_with_trail():
    # The settimeout(None) seam: a worker that accepts a chunk and never
    # replies must surface as a prompt ServiceError carrying the deadline
    # trail — never as an indefinite hang.
    workers = [_FlakyWorker("hang"), _FlakyWorker("hang")]
    try:
        problem = Sphere(2)
        X = problem.space.sample(np.random.default_rng(3), 4)
        import time
        t0 = time.perf_counter()
        with EvalEngine("remote", hosts=[w.address for w in workers],
                        chunk_timeout=0.3) as engine:
            with pytest.raises(service.ServiceError,
                               match="no reply.*worker hung"):
                engine.evaluate_batch(problem, X)
        assert time.perf_counter() - t0 < 30.0
    finally:
        for w in workers:
            w.close()


def test_hung_worker_fails_over_to_healthy_host(local_server):
    # One hung shard + one healthy shard: the deadline reclassifies the
    # hang as a transport failure, the chunk requeues, the batch completes.
    hung = _FlakyWorker("hang")
    try:
        problem = Sphere(2)
        X = problem.space.sample(np.random.default_rng(8), 6)
        with EvalEngine("remote", hosts=[hung.address, local_server.address],
                        chunk_timeout=0.3) as engine:
            F = engine.evaluate_batch(problem, X)
        np.testing.assert_array_equal(F, problem.evaluate_batch(X))
        assert hung.eval_requests >= 1  # the hang really was exercised
    finally:
        hung.close()


def test_chunk_timeout_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "2.5")
    engine = EvalEngine()
    assert engine.chunk_timeout == 2.5
    engine.close()
    monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "")
    engine = EvalEngine()
    assert engine.chunk_timeout is None
    engine.close()
    with pytest.raises(ValueError, match="chunk_timeout"):
        EvalEngine(chunk_timeout=-1.0)
    with pytest.raises(ValueError, match="degraded"):
        EvalEngine(degraded="bogus")


def test_degraded_local_finishes_batch_with_no_live_workers():
    # Graceful degradation: every host dead -> the missing rows are
    # evaluated in-process (logged, counted), not raised as ServiceError.
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        dead = f"127.0.0.1:{placeholder.getsockname()[1]}"
    problem = Sphere(3)
    X = problem.space.sample(np.random.default_rng(9), 5)
    with EvalEngine("remote", hosts=[dead], degraded="local") as engine:
        F = engine.evaluate_batch(problem, X)
        assert engine._remote.n_degraded == 5
    np.testing.assert_array_equal(F, problem.evaluate_batch(X))


class _SilentV2Peer:
    """Accepts connections, answers hello as protocol 2, then goes mute."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.addr = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self.conns = []
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.conns.append(conn)
            threading.Thread(target=self._session, args=(conn,),
                             daemon=True).start()

    def _session(self, conn):
        try:
            msg = service.recv_msg(conn)
            if msg and msg.get("op") == "hello":
                service.send_msg(conn, {"ok": True, "protocol": 2})
            while not self._stop.is_set():  # swallow everything after hello
                if service.recv_msg(conn) is None:
                    return
        except (ConnectionError, OSError, ValueError):
            return

    def drop_clients(self):
        for conn in self.conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    def close(self):
        self._stop.set()
        self.drop_clients()
        try:
            self._listener.close()
        except OSError:
            pass


def test_reader_death_fails_every_pending_waiter_promptly():
    # EOF/reader-thread death on a multiplexed connection must fail *all*
    # pending requests with ConnectionError — no waiter left blocked.
    import time
    peer = _SilentV2Peer()
    try:
        conn = service.MultiplexedConnection(peer.addr)
        outcomes = []

        def ask():
            try:
                conn.request({"op": "stats"})
                outcomes.append("replied")
            except ConnectionError:
                outcomes.append("failed")

        threads = [threading.Thread(target=ask) for _ in range(5)]
        for t in threads:
            t.start()
        time.sleep(0.2)              # all five are pending on the reader
        peer.drop_clients()          # peer dies: EOF on the socket
        for t in threads:
            t.join(timeout=10)
        assert outcomes == ["failed"] * 5
        with pytest.raises(ConnectionError):  # connection is done for
            conn.request({"op": "stats"})
        conn.close()
    finally:
        peer.close()


def test_request_deadline_fires_and_late_duplicate_reply_is_discarded():
    # Per-request deadline on the mux path + first-reply-wins: a reply that
    # lands after its deadline (and a duplicate of it) finds no pending
    # entry and is silently discarded; the connection stays usable.
    import time
    listener = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def peer():
        listener.settimeout(5.0)
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            while not stop.is_set():
                try:
                    msg = service.recv_msg(conn)
                except (ConnectionError, OSError, ValueError):
                    return
                if msg is None:
                    return
                if msg.get("op") == "hello":
                    service.send_msg(conn, {"ok": True, "protocol": 2})
                elif msg.get("op") == "slow":
                    time.sleep(0.5)  # past the caller's 0.2 s deadline
                    late = {"ok": True, "id": msg["id"]}
                    service.send_msg(conn, late)
                    service.send_msg(conn, late)  # and its duplicate
                else:
                    service.send_msg(conn, {"ok": True, "id": msg["id"],
                                            "fresh": True})

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        conn = service.MultiplexedConnection(listener.getsockname()[:2])
        with pytest.raises(service.DeadlineExceeded, match="no reply"):
            conn.request({"op": "slow"}, timeout=0.2)
        # The late reply and its duplicate hit the reader before the next
        # reply does (the peer serves in order); both must be discarded and
        # request 2 must receive *its* frame, not a stale id-1 one.
        reply = conn.request({"op": "next"}, timeout=10.0)
        assert reply.get("fresh") and reply["id"] == 2
        conn.close()
    finally:
        stop.set()
        listener.close()
        thread.join(timeout=10)


def test_register_loop_survives_registry_restart():
    # The worker-side heartbeat loop must outlive a registry restart:
    # backoff while it is down, re-register on the next successful connect.
    from repro.core.fleet import RegistryServer, WorkerRegistry
    import time
    registry1 = WorkerRegistry(timeout=30.0)
    server1 = RegistryServer(registry1)
    port = server1.port
    stop = threading.Event()
    thread = threading.Thread(
        target=service._register_loop,
        args=(server1.address, "worker:9", 0.05, stop), daemon=True)
    thread.start()
    server2 = None
    try:
        deadline = time.monotonic() + 10.0
        while "worker:9" not in registry1.live():
            assert time.monotonic() < deadline, "initial registration missed"
            time.sleep(0.02)
        server1.close()              # registry restart: same port, new state
        time.sleep(0.3)              # loop is now failing + backing off
        registry2 = WorkerRegistry(timeout=30.0)
        server2 = RegistryServer(registry2, port=port)
        deadline = time.monotonic() + 15.0
        while "worker:9" not in registry2.live():
            assert time.monotonic() < deadline, (
                "worker never re-registered after the registry restart")
            time.sleep(0.02)
    finally:
        stop.set()
        thread.join(timeout=10)
        server1.close()
        if server2 is not None:
            server2.close()


def test_last_host_death_raises_service_error_promptly():
    # Every shard dies mid-chunk: the bounded failover must surface a
    # ServiceError carrying the host trail — not spin on requeues or
    # report success with missing rows.
    workers = [_FlakyWorker("die"), _FlakyWorker("die")]
    try:
        problem = Sphere(2)
        X = problem.space.sample(np.random.default_rng(0), 8)
        with EvalEngine("remote", hosts=[w.address for w in workers]) as engine:
            with pytest.raises(service.ServiceError, match="failed on all hosts"):
                engine.evaluate_batch(problem, X)
        total = sum(w.eval_requests for w in workers)
        assert total <= 2 + 2 * len(workers)  # bounded, no requeue spin
    finally:
        for w in workers:
            w.close()


def test_chunk_requeue_budget_is_bounded():
    # A chunk that kills every worker it lands on is abandoned after a
    # bounded number of failovers, even on a fleet that could still gain
    # workers (its registry server is listening, so it keeps retrying the
    # quarantined pins instead of giving up on them).
    from repro.core.fleet import FleetCoordinator
    workers = [_FlakyWorker("die"), _FlakyWorker("die")]
    try:
        with FleetCoordinator(hosts=[w.address for w in workers],
                              poll_interval=0.05,
                              max_chunk_requeues=2) as fleet:
            fleet.listen()
            engine = fleet.engine("doomed")
            with pytest.raises(service.ServiceError, match="abandoned after"):
                engine.evaluate_batch(Sphere(2), np.zeros((1, 2)))
            engine.close()
        # at most one eval per failover plus the one that exhausts the
        # budget (a slot that picks the chunk off a dead connection fails
        # it without sending)
        assert 1 <= sum(w.eval_requests for w in workers) <= 3
    finally:
        for w in workers:
            w.close()


def test_engine_close_with_inflight_remote_submit_raises_not_hangs():
    # A shard that accepts the chunk and never answers: close() must tear
    # down the dispatcher first so the blocked gather() raises quickly —
    # the old order deadlocked close() behind the submit pool.
    worker = _FlakyWorker("hang")
    try:
        problem = Sphere(2)
        engine = EvalEngine("remote", hosts=[worker.address])
        handle = engine.submit(problem,
                               problem.space.sample(np.random.default_rng(1), 4))
        import time
        time.sleep(0.3)  # let the dispatch thread block on the socket
        t0 = time.perf_counter()
        engine.close()
        assert time.perf_counter() - t0 < 10.0
        with pytest.raises((service.ServiceError, RuntimeError)):
            engine.gather(handle)
    finally:
        worker.close()


def test_closed_dispatcher_refuses_new_work():
    # Closing a remote engine closes the private fleet it owns: the engine
    # and its dispatcher both refuse further work.
    problem = Sphere(2)
    engine = EvalEngine("remote", hosts=["127.0.0.1:1"])
    dispatcher = engine._remote
    engine.close()
    with pytest.raises(service.ServiceError, match="closed"):
        dispatcher.dispatch(problem, b"token", np.zeros((1, 2)))
    with pytest.raises(RuntimeError, match="closed"):
        engine.evaluate_batch(problem, np.zeros((1, 2)))


# ----------------------------------------------------------------------
# multiplexing, protocol-version refusal, spawn robustness
# ----------------------------------------------------------------------
def test_spawn_local_worker_survives_startup_noise(monkeypatch):
    # Interpreter chatter on the merged stderr/stdout stream used to eat
    # the readiness banner (only the first line was ever read), so healthy
    # workers were killed at startup.  The banner is now scanned for.
    monkeypatch.setenv("PYTHONVERBOSE", "1")  # floods the stream pre-banner
    proc, host = service.spawn_local_worker()
    try:
        with socket.create_connection(service.parse_host(host),
                                      timeout=10) as conn:
            assert _roundtrip(conn, {"op": "hello"})["ok"]
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_v2_connection_answers_stats_while_eval_in_flight(local_server):
    # Connection multiplexing: a second request on the same connection is
    # answered while a slow eval is still running — no head-of-line block.
    import base64
    import pickle
    import time as _time

    from repro.problems import LatencyProblem

    problem = LatencyProblem(Sphere(2), 0.4)
    conn = service.MultiplexedConnection((local_server.host, local_server.port))
    try:
        assert conn.hello["protocol"] == service.PROTOCOL_VERSION
        engine = EvalEngine()
        token = engine._problem_token(problem).hex()
        engine.close()
        blob = base64.b64encode(pickle.dumps(problem)).decode("ascii")
        assert conn.request({"op": "put_problem", "token": token,
                             "blob": blob})["ok"]
        X = problem.space.sample(np.random.default_rng(0), 2)  # ~0.8 s serial
        result = {}

        def evaluate():
            result["reply"] = conn.request(
                {"op": "eval", "token": token, "X": X.tolist()})

        thread = threading.Thread(target=evaluate)
        thread.start()
        _time.sleep(0.15)                    # the eval frame is in flight
        t0 = _time.perf_counter()
        stats = conn.request({"op": "stats"})
        waited = _time.perf_counter() - t0
        thread.join(30)
        assert stats["ok"] and result["reply"]["ok"]
        # a connection serialized per request would have waited ~0.65 s
        assert waited < 0.4
    finally:
        conn.close()


def test_protocol_1_worker_is_refused():
    # Every worker speaks PROTOCOL_VERSION; a peer announcing protocol 1 in
    # its hello is refused at the handshake, before any request is sent.
    listener = socket.create_server(("127.0.0.1", 0))

    def peer():
        conn, _ = listener.accept()
        with conn:
            if (service.recv_msg(conn) or {}).get("op") == "hello":
                service.send_msg(conn, {"ok": True, "protocol": 1})
            service.recv_msg(conn)  # hold the socket until the client drops

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        with pytest.raises(ConnectionError, match="bad hello"):
            service.MultiplexedConnection(listener.getsockname()[:2])
    finally:
        listener.close()
        thread.join(timeout=10)
