"""Evaluation worker servers and the wire protocol they speak.

This module is the wire layer under the ``"remote"`` backend of
:class:`EvalEngine`: :class:`EvalWorkerServer` is one worker (one shard,
one host), a TCP server wrapping the existing *serial* engine, and
:class:`MultiplexedConnection` is the client side of one persistent
connection to it.  Dispatch itself — chunking, failover, deadlines,
hedging — lives in :class:`~repro.core.fleet.FleetCoordinator`:
``EvalEngine("remote", hosts=[...])`` runs on a private, single-tenant
coordinator pinned to those hosts, and a shared coordinator serves many
Studies over an elastic worker fleet.

Wire protocol (version 2)
-------------------------

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON::

    frame := uint32_be(len(payload)) + payload          # payload = JSON object

Requests carry an ``"op"`` key; every reply carries ``"ok"``.  Version 2
adds **request multiplexing**: a request MAY carry an integer ``"id"``, and
the reply to an id-carrying request echoes the same ``"id"`` — replies on
one connection may then arrive *out of order*, and several requests (from
several tenants, or overlapping ``submit()`` dispatches) can be in flight
on one shared per-host connection at once.  A request *without* an ``"id"``
is answered inline, in order, before the next frame is read.  The ``hello``
exchange is always id-less (it happens before multiplexing starts) and
carries the worker's protocol version; a coordinator refuses any worker
whose version is not :data:`PROTOCOL_VERSION`::

    -> {"op": "hello"}
    <- {"ok": true, "protocol": 2, "pid": 1234, "problems": 0}

    -> {"op": "put_problem", "token": "<hex>", "blob": "<base64 pickle>",
        "id": 7}
    <- {"ok": true, "id": 7}

    -> {"op": "eval", "token": "<hex>", "X": [[...], ...], "id": 8}
    <- {"ok": true, "F": [[...], ...], "counters": {"assemble_s": ...},
        "n_sims": 4, "id": 8}

    -> {"op": "stats", "id": 9}
    <- {"ok": true, "pid": 1234, "n_sims": 120, "cache_hits": 30,
        "disk_hits": 4, "cache_entries": 120, "problems": 2,
        "uptime_s": 17.2, "id": 9}

    -> {"op": "shutdown"}
    <- {"ok": true}                                     # then the server exits

``counters`` are the worker-side :mod:`repro.spice.profile` deltas for the
chunk, so the coordinator's :meth:`EvalEngine.hotpath_report` stays faithful
even though the simulation happened in another process on another host.
``n_sims`` is the number of designs the worker actually simulated (its own
serial engine may answer repeats from its per-process cache — and, with
``--cache-dir``, from its own persistent disk tier).

Determinism: every design is evaluated by the unchanged serial engine in
*some* worker, results are written back by original batch index, and JSON
round-trips Python floats exactly (``repr`` shortest round-trip), so
optimizer histories are bit-identical to ``backend="serial"`` no matter how
chunks land on hosts — pinned by ``tests/core/test_service.py``.

The coordinator-side engine owns the shared cache tier: it de-duplicates and
memoizes *before* dispatch, so a design repeated across shards, batches or
trials is simulated exactly once service-wide.

Problems travel as pickles, so run workers only on hosts/networks you trust
(same boundary as every multiprocessing-based tool).  Start a worker with::

    python -m repro.core.service --port 9101

``--port 0`` picks a free port; the worker prints
``repro-eval-worker listening on HOST:PORT`` on stdout when ready.  With
``--register HOST:PORT`` the worker announces itself to a fleet registry
(see :mod:`repro.core.fleet`) and keeps a heartbeat alive, so coordinators
discover it instead of being configured with a static host list; with
``--cache-dir DIR`` the worker's serial engine answers repeated designs
from its own persistent disk tier across restarts.

The op table above is normative and declared once, machine-readably, in
:mod:`repro.tools.protocol_schema`; rule **RP04** of the contract linter
(``python -m repro.tools.lint src``, see README "Static analysis &
contracts") cross-checks every literal frame and every handler dispatch in
the tree against it, so adding an op starts in the schema module.  The
same schema module's ``SANITIZED_CLASSES`` table drives the runtime lock
sanitizer (``REPRO_SANITIZE=1``), which cross-checks this module's lock
nesting (``_eval_lock`` over the engine's ``_state_lock``) against the
static lock-order graph (``python -m repro.tools.flow src --check``, rules
RP06/RP07).
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import pickle
import select
import socket
import struct
import threading
import time
import zlib
from collections import OrderedDict
from itertools import count
from queue import Empty, SimpleQueue

import numpy as np

from .engine import MAX_PROBLEMS

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MultiplexedConnection",
    "EvalWorkerServer",
    "ServiceError",
    "DeadlineExceeded",
    "backoff_delay",
    "send_msg",
    "recv_msg",
    "parse_host",
    "spawn_local_worker",
    "main",
]

PROTOCOL_VERSION = 2


class ServiceError(RuntimeError):
    """The evaluation service could not complete a dispatch.

    Raised through the ``remote`` backend and every fleet tenant
    (:class:`~repro.core.fleet.FleetCoordinator`) when a batch cannot be
    finished — every pinned host failed, a worker rejected the work, a
    chunk exhausted its bounded requeue budget, or the coordinator was
    closed with work in flight.  The message carries the per-host failure
    trail so a dead service reads as an operational problem, not a mystery
    hang.
    """


class DeadlineExceeded(ConnectionError):
    """A request's per-chunk deadline elapsed with no reply.

    Subclasses :class:`ConnectionError` on purpose: a worker that accepted
    a chunk and went silent is indistinguishable from a dead transport, so
    the timeout rides the exact same bounded-failover path (drop the host,
    re-queue the chunk for the survivors) instead of hanging the dispatch.
    """


def backoff_delay(attempt: int, *, base: float = 0.1, cap: float = 30.0,
                  key: str = "") -> float:
    """Capped exponential backoff with deterministic jitter.

    ``attempt`` counts consecutive failures starting at 0.  The jitter is
    derived from ``crc32(key:attempt)`` — not a random source — so retry
    schedules are reproducible run-to-run (the chaos suite depends on it)
    while distinct hosts still decorrelate their retry storms.  The result
    is always in ``[base/2, cap]``.
    """
    raw = min(float(cap), float(base) * (2.0 ** max(0, int(attempt))))
    frac = zlib.crc32(f"{key}:{attempt}".encode("utf-8")) % 1000 / 1000.0
    return raw * (0.5 + 0.5 * frac)


#: refuse frames above this size — a longer length prefix means a corrupt
#: stream or a non-protocol peer, not a real request.
MAX_FRAME_BYTES = 1 << 29

_HEADER = struct.Struct(">I")


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def send_msg(sock: socket.socket, obj: dict) -> None:
    """Send one length-prefixed JSON frame."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds protocol maximum")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_msg(sock: socket.socket) -> dict | None:
    """Receive one frame; ``None`` on clean EOF (peer closed between frames)."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds protocol maximum")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ConnectionError("connection closed mid-frame")
    return json.loads(payload.decode("utf-8"))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise ConnectionError("connection closed mid-frame")
            return None
        buf.extend(chunk)
    return bytes(buf)


def parse_host(spec: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``."""
    host, sep, port = spec.strip().rpartition(":")
    if not sep or not host:
        raise ValueError(f"host must be 'host:port', got {spec!r}")
    return host, int(port)


# ----------------------------------------------------------------------
# multiplexed per-host connection (client side)
# ----------------------------------------------------------------------
class MultiplexedConnection:
    """One persistent connection to a worker, shared by concurrent requesters.

    Every request is stamped with a fresh integer ``id`` and a background
    reader thread routes replies back to their callers by that id — so
    overlapping dispatches (two studies' chunks, or two pipelined
    ``submit()`` batches) interleave on one socket instead of queueing
    behind each other.  A peer whose ``hello`` does not report
    :data:`PROTOCOL_VERSION` is refused with :class:`ConnectionError`.

    A transport failure (reader-thread death, socket EOF, a corrupt frame)
    fails *every* pending request with :class:`ConnectionError` — no waiter
    is ever left blocked; the connection is then unusable (callers drop and
    reconnect).  Per-request deadlines are available via
    ``request(msg, timeout=...)``: a worker that accepts a frame and never
    replies raises :class:`DeadlineExceeded` instead of hanging the caller.
    """

    def __init__(self, addr: tuple[str, int], *, connect_timeout: float = 10.0):
        self.addr = addr
        self._sock = socket.create_connection(addr, timeout=connect_timeout)
        try:
            # Handshake is id-less by definition: multiplexing starts once
            # the worker's protocol version is known.  It runs under
            # connect_timeout — a peer that accepts the TCP connection but
            # never answers hello is as dead as one that refused it.
            send_msg(self._sock, {"op": "hello"})
            hello = recv_msg(self._sock)
        except OSError:
            self._sock.close()
            raise
        if (not hello or not hello.get("ok")
                or hello.get("protocol") != PROTOCOL_VERSION):
            self._sock.close()
            raise ConnectionError(
                f"{addr[0]}:{addr[1]}: bad hello reply {hello!r}")
        # Steady state is unbounded: simulations may legitimately take
        # minutes.  Callers bound individual requests with the ``timeout``
        # argument of :meth:`request` (the per-chunk deadline), not with a
        # socket-wide timeout that would poison the shared reader.
        self._sock.settimeout(None)
        self.hello = hello
        self._lock = threading.Lock()        # pending table + broken flag
        self._send_lock = threading.Lock()   # one frame on the wire at a time
        self._pending: dict[int, SimpleQueue] = {}   # guarded by: _lock
        self._ids = count(1)
        self._broken: Exception | None = None        # guarded by: _lock
        self._reader = threading.Thread(
            target=self._read_loop, name=f"mux-read-{addr[0]}:{addr[1]}",
            daemon=True)
        self._reader.start()

    def request(self, msg: dict, *, timeout: float | None = None) -> dict:
        """Send one request and block for its reply (thread-safe).

        ``timeout`` bounds the wait for *this* reply: when it elapses the
        request's pending entry is withdrawn and :class:`DeadlineExceeded`
        is raised, so a hung worker surfaces as a retryable transport
        failure instead of blocking the caller forever.  A reply that
        arrives after its deadline (or a duplicate reply) finds no pending
        entry and is discarded — first reply wins, by request id.
        """
        rid = next(self._ids)
        queue: SimpleQueue = SimpleQueue()
        with self._lock:
            if self._broken is not None:
                raise ConnectionError(str(self._broken))
            self._pending[rid] = queue
        try:
            with self._send_lock:
                send_msg(self._sock, {**msg, "id": rid})
        except BaseException:
            with self._lock:
                self._pending.pop(rid, None)
            raise
        try:
            reply = queue.get(timeout=timeout)
        except Empty:
            with self._lock:
                self._pending.pop(rid, None)
            raise DeadlineExceeded(
                f"{self.addr[0]}:{self.addr[1]}: no reply to request {rid} "
                f"within {timeout:g}s (worker hung?)") from None
        if isinstance(reply, Exception):
            raise ConnectionError(str(reply)) from reply
        return reply

    def _read_loop(self) -> None:
        try:
            while True:
                reply = recv_msg(self._sock)
                if reply is None:
                    raise ConnectionError("connection closed")
                rid = reply.get("id")
                if rid is None:
                    # The peer must echo ids; an id-less frame here means
                    # the peer is broken or the stream is corrupt.
                    raise ConnectionError(
                        "protocol violation: reply without request id on a "
                        "multiplexed connection")
                with self._lock:
                    queue = self._pending.pop(rid, None)
                if queue is not None:
                    queue.put(reply)
        except Exception as exc:
            self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        with self._lock:
            if self._broken is None:
                self._broken = exc
            pending, self._pending = self._pending, {}
        for queue in pending.values():
            queue.put(exc)

    def close(self) -> None:
        """Shut the socket down; every pending request raises promptly."""
        try:
            # Unblock any thread parked in recv on this socket before
            # releasing the fd — close() alone can leave a concurrent
            # reader waiting on a kernel buffer that never fills.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._fail(ConnectionError("connection closed"))

    def __repr__(self) -> str:
        with self._lock:
            n_pending = len(self._pending)
        return (f"MultiplexedConnection({self.addr[0]}:{self.addr[1]}, "
                f"pending={n_pending})")


# ----------------------------------------------------------------------
# worker server (one shard)
# ----------------------------------------------------------------------
class EvalWorkerServer:
    """One evaluation shard: a TCP server wrapping a serial :class:`EvalEngine`.

    Problems are installed once per server (``put_problem``) and referenced
    by their content token afterwards, so steady-state traffic is just design
    vectors and performance rows.  Evaluations are serialized by a lock (a
    worker *is* one serial engine) but requests are *accepted*
    concurrently: an id-carrying request is answered whenever its handler
    finishes, so control ops (``hello``/``stats``) and queued chunks from
    other tenants never wait behind a long evaluation's wire round-trip.
    Id-less requests (``hello`` and ``shutdown`` from a coordinator, or a
    plain request/reply client) are answered inline, in order.

    With ``cache_dir`` the worker's engine gets its own persistent disk
    tier, so a restarted shard answers repeated designs with zero
    simulations.
    """

    #: installed problems kept per worker (LRU); coordinators re-ship on a
    #: ``need_problem`` reply, so eviction is safe for long-lived shards.
    MAX_PROBLEMS = MAX_PROBLEMS

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 cache_size: int = 100_000, cache_dir=None):
        from .engine import EvalEngine, _spice_counters
        _spice_counters()  # preload the simulator before "listening" prints,
        #                    so the first eval doesn't pay the import
        self._engine = EvalEngine("serial", cache_size=cache_size,
                                  cache_dir=cache_dir)
        # guarded by: _problems_lock
        self._problems: "OrderedDict[str, object]" = OrderedDict()
        self._problems_lock = threading.Lock()
        self._eval_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._started = time.monotonic()
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close` (or a ``shutdown`` op)."""
        self._listener.settimeout(0.2)
        while not self._shutdown.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True).start()
        try:
            self._listener.close()
        except OSError:
            pass

    def close(self) -> None:
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass

    # -- per-connection loop ----------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()  # concurrent repliers share the socket
        with conn:
            while not self._shutdown.is_set():
                try:
                    msg = recv_msg(conn)
                except (ConnectionError, OSError, ValueError):
                    return
                if msg is None:
                    return
                rid = msg.get("id")
                if rid is None or msg.get("op") == "shutdown":
                    # Id-less: handle inline, reply in order.  shutdown
                    # is always inline so the final reply wins the race with
                    # the listener teardown.
                    if not self._reply(conn, write_lock, msg, rid):
                        return
                    if msg.get("op") == "shutdown":
                        self.close()
                        return
                else:
                    threading.Thread(target=self._reply,
                                     args=(conn, write_lock, msg, rid),
                                     daemon=True).start()

    def _reply(self, conn, write_lock, msg: dict, rid) -> bool:
        try:
            reply = self._handle(msg)
        except Exception as exc:  # a bad request must not kill the shard
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if rid is not None:
            reply["id"] = rid
        try:
            with write_lock:
                send_msg(conn, reply)
        except OSError:
            return False
        return True

    def _handle(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "hello":
            with self._problems_lock:
                n_problems = len(self._problems)
            return {"ok": True, "protocol": PROTOCOL_VERSION, "pid": os.getpid(),
                    "problems": n_problems}
        if op == "put_problem":
            token = msg["token"]
            with self._problems_lock:
                if token not in self._problems:
                    self._problems[token] = pickle.loads(
                        base64.b64decode(msg["blob"]))
                self._problems.move_to_end(token)
                while len(self._problems) > self.MAX_PROBLEMS:
                    self._problems.popitem(last=False)
            return {"ok": True}
        if op == "eval":
            return self._eval(msg)
        if op == "stats":
            return self._stats()
        if op == "shutdown":
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _eval(self, msg: dict) -> dict:
        with self._problems_lock:
            problem = self._problems.get(msg["token"])
            if problem is not None:
                self._problems.move_to_end(msg["token"])
        if problem is None:
            return {"ok": False, "need_problem": True,
                    "error": "unknown problem token (send put_problem first)"}
        from .engine import _spice_counters
        X = np.asarray(msg["X"], dtype=np.float64)
        with self._eval_lock:
            profile = _spice_counters()
            before = profile.snapshot()
            # counters_snapshot() reads under the engine's _state_lock; a
            # bare self._engine.n_sim_calls would race dispatch threads
            # (cross-object access RP02 cannot see — the runtime sanitizer
            # flagged it).
            sims_before = self._engine.counters_snapshot()["n_sim_calls"]
            F = self._engine.evaluate_batch(problem, X)
            counters = profile.delta(before)
            n_sims = (self._engine.counters_snapshot()["n_sim_calls"]
                      - sims_before)
        return {"ok": True, "F": F.tolist(),
                "counters": {k: v for k, v in counters.items() if v},
                "n_sims": n_sims}

    def _stats(self) -> dict:
        counters = self._engine.counters_snapshot()
        with self._problems_lock:
            n_problems = len(self._problems)
        return {"ok": True, "pid": os.getpid(),
                "n_sims": counters["n_sim_calls"],
                "cache_hits": counters["n_cache_hits"],
                "disk_hits": counters["n_disk_hits"],
                "cache_entries": counters["cache_entries"],
                "cache_dir": self._engine.cache_dir,
                "problems": n_problems,
                "uptime_s": round(time.monotonic() - self._started, 3)}


# ----------------------------------------------------------------------
# worker entrypoint: python -m repro.core.service
# ----------------------------------------------------------------------
def spawn_local_worker(*, cache_size: int | None = None, cache_dir=None,
                       register: str | None = None,
                       heartbeat: float | None = None,
                       startup_timeout: float = 60.0):
    """Start a worker server subprocess on a free local port.

    Returns ``(Popen, "host:port")`` once the worker prints its readiness
    banner.  Interpreter startup noise (NumPy/deprecation warnings on the
    merged stderr) is skipped — the banner is searched for line by line
    until ``startup_timeout`` seconds, instead of killing a healthy worker
    whose *first* output line happens to be a warning.  Convenience for
    tests/benchmarks and quick local shards; for a long-lived deployment
    run ``python -m repro.core.service`` yourself.
    """
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro.core.service", "--port", "0"]
    if cache_size is not None:
        cmd += ["--cache-size", str(cache_size)]
    if cache_dir is not None:
        cmd += ["--cache-dir", os.fspath(cache_dir)]
    if register:
        cmd += ["--register", register]
    if heartbeat is not None:
        cmd += ["--heartbeat", str(heartbeat)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env)
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + float(startup_timeout)
    buf = b""
    noise: list[str] = []
    while True:
        while b"\n" in buf:
            raw, _, buf = buf.partition(b"\n")
            line = raw.decode("utf-8", "replace")
            if "listening on" in line:
                return proc, line.rsplit("listening on ", 1)[1].split()[0]
            noise.append(line)  # warnings/deprecations before the banner
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            proc.kill()
            raise RuntimeError(
                f"worker failed to start within {startup_timeout:g}s; "
                f"output so far: {noise[-5:]!r}")
        ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
        if not ready:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"worker exited with {proc.returncode} before its "
                    f"readiness banner; output: {noise[-5:]!r}")
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            proc.wait(timeout=10)
            raise RuntimeError(
                f"worker exited with {proc.returncode} before its "
                f"readiness banner; output: {noise[-5:]!r}")
        buf += chunk


def _register_loop(registry: str, address: str, interval: float,
                   stop: threading.Event) -> None:
    """Keep a registration + heartbeat session alive against a registry.

    Reconnects (with the registration automatically re-sent) after any
    transport error, so a registry restart just re-discovers the worker on
    a later beat.  Consecutive failures back off exponentially (capped,
    deterministically jittered per worker address) instead of hammering a
    down registry at a fixed cadence — and the loop itself never dies; it
    keeps trying until the worker shuts down.
    """
    addr = parse_host(registry)
    failures = 0
    while not stop.is_set():
        try:
            with socket.create_connection(addr, timeout=5.0) as conn:
                conn.settimeout(10.0)
                send_msg(conn, {"op": "register", "address": address})
                if not (recv_msg(conn) or {}).get("ok"):
                    raise ConnectionError("registration rejected")
                failures = 0
                while not stop.wait(interval):
                    send_msg(conn, {"op": "heartbeat", "address": address})
                    reply = recv_msg(conn)
                    if reply is None or not reply.get("ok"):
                        raise ConnectionError("heartbeat rejected")
                if stop.is_set():
                    send_msg(conn, {"op": "deregister", "address": address})
                    recv_msg(conn)
                    return
        except (OSError, ConnectionError, ValueError):
            delay = backoff_delay(failures, base=min(interval, 0.5),
                                  cap=15.0, key=address)
            failures += 1
            stop.wait(delay)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.service",
        description="Start one evaluation-service worker (a serial EvalEngine "
                    "behind the length-prefixed JSON socket protocol).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free port, default)")
    parser.add_argument("--cache-size", type=int, default=100_000,
                        help="worker-local evaluation cache entries")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent disk cache directory for this "
                             "worker's engine (default: REPRO_CACHE_DIR)")
    parser.add_argument("--register", metavar="HOST:PORT", default=None,
                        help="announce this worker to a fleet registry and "
                             "keep a heartbeat alive (see repro.core.fleet)")
    parser.add_argument("--heartbeat", type=float, default=1.0,
                        help="seconds between registry heartbeats")
    parser.add_argument("--advertise", default=None,
                        help="address to register under (default: the bound "
                             "host:port — override behind NAT)")
    args = parser.parse_args(argv)

    from .blas import set_blas_threads
    set_blas_threads(1)
    server = EvalWorkerServer(args.host, args.port, cache_size=args.cache_size,
                              cache_dir=args.cache_dir)
    print(f"repro-eval-worker listening on {server.address} (pid {os.getpid()})",
          flush=True)
    stop_heartbeat = threading.Event()
    if args.register:
        threading.Thread(target=_register_loop,
                         args=(args.register, args.advertise or server.address,
                               max(0.05, args.heartbeat), stop_heartbeat),
                         daemon=True).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive convenience
        server.close()
    finally:
        stop_heartbeat.set()


if __name__ == "__main__":
    main()
