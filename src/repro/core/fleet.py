"""Multi-tenant evaluation control plane: registry, fair scheduler, fleet.

:mod:`repro.core.service` provides the worker servers and the wire
protocol.  This module is the one dispatch path above them — the piece
that lets *many* concurrent Studies (tenants) share one *elastic* worker
fleet, the industrial pattern behind DNN-Opt's deployment story (many
sizing runs against one simulator farm).  ``EvalEngine("remote",
hosts=[...])`` is its smallest case: a private coordinator pinned to
``hosts`` with one tenant (:func:`private_fleet`).

* :class:`WorkerRegistry` — a heartbeat-refreshed table of live worker
  addresses.  Workers started with ``python -m repro.core.service
  --register HOST:PORT`` announce themselves and keep a heartbeat alive;
  an address whose heartbeats stop **ages out** and its in-flight chunks
  are re-queued.  Addresses may also be pinned statically (``hosts=``)
  for fixed deployments.
* :class:`RegistryServer` — the TCP endpoint workers register against,
  speaking the same length-prefixed JSON frames as the evaluation
  protocol.  It doubles as the fleet's **metrics endpoint**: a ``stats``
  op returns queue depth, per-tenant sims/sec and cache hit-rate,
  in-flight chunks and per-worker totals.
* :class:`FleetCoordinator` — the job/queue layer.  Each tenant gets a
  standard :class:`~repro.core.engine.EvalEngine` from
  :meth:`FleetCoordinator.engine` (so Studies, the runner, warm-starts and
  the cache tiers all work unchanged); the engine's cache-missed designs
  flow into a per-tenant chunk queue, and per-host pump threads pull
  chunks through a **weighted deficit round-robin** scheduler — every
  queued tenant is served at chunk granularity in cyclic order, credits
  refilled in proportion to its ``priority``, so no tenant can starve
  another no matter how large its batches are.  Chunks ride
  :class:`~repro.core.service.MultiplexedConnection`, so one worker
  connection interleaves many tenants' requests.

Elasticity and failure semantics follow a bounded-failover contract: a
transport error (or a heartbeat age-out) drops the host, re-queues its
chunks for the survivors, and counts against a bounded per-chunk requeue
budget — so losing a worker mid-run is absorbed with bit-identical
results.  A coordinator without a registry server (no :meth:`listen`) is
served by its pins alone, so once every pin has failed its queued
dispatches abort at once with a
:class:`~repro.core.service.ServiceError` carrying the per-host failure
trail; a failed pin stays pinned and is retried after its quarantine, so
a restarted worker serves later batches.  A worker's own *rejection* of a
well-formed request (the evaluation raised) aborts only the affected
dispatch — deterministic failures are never retried onto other shards.

On top of that contract this module hardens the failure domain:
``chunk_timeout`` arms a per-chunk deadline (a worker that accepts a chunk
and never replies is a retryable transport failure, not a hang);
``hedge_factor`` re-dispatches straggling chunks speculatively to another
host (first reply wins, duplicates discarded — harmless because evals are
deterministic and cache-deduped); failed hosts are quarantined under
capped exponential backoff with deterministic jitter instead of a fixed
retry-after.  Nothing is ever evaluated in the coordinator's process: with
zero live workers a registry fleet waits for one to register, and a
registry-less one fails as described above.  All recovery paths preserve
the bit-identity contract below and are pinned under seeded fault
injection by :mod:`repro.core.chaos` (``tests/core/test_chaos.py``).

A dispatch ships the problem pickle its engine already holds (the bytes
its fingerprint token hashes), base64-encoded once per dispatch, so a
worker always unpickles exactly the problem the token names; the engine
refuses an unpicklable problem before anything reaches the fleet.

Typical wiring::

    fleet = FleetCoordinator()           # own registry
    fleet.listen(port=9100)              # registry + metrics endpoint
    # workers (any machine):  python -m repro.core.service \
    #                           --register coordinator:9100
    eng_a = fleet.engine("study-a", priority=2.0)
    eng_b = fleet.engine("study-b")
    # drive Studies on eng_a/eng_b concurrently; fleet.stats() any time
    fleet.close()

Determinism: chunk results are written back by batch index and every
design is evaluated by an unchanged serial engine on *some* worker, so a
tenant's optimizer history is bit-identical to a serial run regardless of
scheduling, host churn, or what the other tenants are doing — pinned by
``tests/core/test_fleet.py``.

Concurrency checking: this module's lock nesting (``FleetCoordinator._cond``
over ``_DispatchState._lock``, the pump's engine-lock handoffs) is part of
the static lock-order graph (``python -m repro.tools.flow src --check``,
rules RP06/RP07) and is validated at runtime by the lock sanitizer
(``REPRO_SANITIZE=1``; classes listed in
``repro.tools.protocol_schema.SANITIZED_CLASSES``).  When adding or nesting
a lock here, follow the "Adding a lock" checklist in the README.
"""

from __future__ import annotations

import base64
import threading
import time
import weakref
from collections import deque
from itertools import count

import numpy as np

from .service import (PROTOCOL_VERSION, MultiplexedConnection, ServiceError,
                      backoff_delay, parse_host, recv_msg, send_msg)

__all__ = ["WorkerRegistry", "RegistryServer", "FleetCoordinator"]


class _EvalRejected(Exception):
    """The worker is healthy but refused the request itself."""


def _chunk_ranges(n: int, n_consumers: int, granularity: int = 4):
    """Work-stealing chunk bounds: ~``granularity`` chunks per consumer."""
    size = max(1, n // max(1, n_consumers * granularity))
    return [(start, min(start + size, n)) for start in range(0, n, size)]


# ----------------------------------------------------------------------
# worker registry
# ----------------------------------------------------------------------
class WorkerRegistry:
    """Heartbeat-refreshed table of live worker addresses (thread-safe).

    A worker that registers (a heartbeat is the same refresh) stays *live*
    until ``timeout`` seconds pass without another beat, then ages out.
    Addresses registered with ``static=True`` never age out — the
    fixed-deployment escape hatch; :meth:`deregister` removes either kind
    explicitly.
    """

    def __init__(self, *, timeout: float = 10.0):
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._seen: dict[str, float] = {}   # address -> last heartbeat; guarded by: _lock
        self._static: set[str] = set()      # guarded by: _lock
        self.n_joins = 0                    # guarded by: _lock
        self.n_drops = 0  # age-outs (explicit deregisters not counted); guarded by: _lock

    def register(self, address: str, *, static: bool = False) -> None:
        address = str(address)
        with self._lock:
            if address not in self._seen and address not in self._static:
                self.n_joins += 1
            if static:
                self._static.add(address)
            else:
                self._seen[address] = time.monotonic()

    def deregister(self, address: str) -> None:
        with self._lock:
            self._seen.pop(address, None)
            self._static.discard(address)

    def pins(self) -> frozenset[str]:
        """The static addresses, which never age out."""
        with self._lock:
            return frozenset(self._static)

    def live(self) -> list[str]:
        """Sorted live addresses; prunes (and counts) aged-out entries."""
        now = time.monotonic()
        with self._lock:
            stale = [a for a, ts in self._seen.items()
                     if now - ts > self.timeout]
            for address in stale:
                del self._seen[address]
                self.n_drops += 1
            return sorted(self._static | set(self._seen))

    def counters(self) -> dict[str, int]:
        """Join/age-out counters, read under the lock (bare attribute reads
        from another object would race :meth:`register`/:meth:`live`)."""
        with self._lock:
            return {"joins": self.n_joins, "ageouts": self.n_drops}

    def __len__(self) -> int:
        return len(self.live())

    def __repr__(self) -> str:
        return (f"WorkerRegistry(live={self.live()!r}, "
                f"timeout={self.timeout:g})")


class RegistryServer:
    """TCP endpoint for worker registration, heartbeats and fleet metrics.

    Speaks the service's length-prefixed JSON frames.  Ops: ``hello``,
    ``register``/``heartbeat``/``deregister`` (worker lifecycle),
    ``workers`` (live addresses) and ``stats`` — the metrics endpoint,
    answering with :meth:`FleetCoordinator.stats` when a coordinator is
    attached (``stats_source``).  Serving starts immediately on a
    background thread.
    """

    def __init__(self, registry: WorkerRegistry, host: str = "127.0.0.1",
                 port: int = 0, *, stats_source=None):
        import socket
        self.registry = registry
        self.stats_source = stats_source
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._shutdown = threading.Event()
        self._thread = threading.Thread(target=self._serve,
                                        name=f"registry-{self.port}",
                                        daemon=True)
        self._thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _serve(self) -> None:
        import socket
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

    def _serve_connection(self, conn) -> None:
        with conn:
            while not self._shutdown.is_set():
                try:
                    msg = recv_msg(conn)
                except (ConnectionError, OSError, ValueError):
                    return
                if msg is None:
                    return
                try:
                    reply = self._handle(msg)
                except Exception as exc:
                    reply = {"ok": False,
                             "error": f"{type(exc).__name__}: {exc}"}
                if msg.get("id") is not None:
                    reply["id"] = msg["id"]
                try:
                    send_msg(conn, reply)
                except OSError:
                    return

    def _handle(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "hello":
            return {"ok": True, "protocol": PROTOCOL_VERSION,
                    "role": "registry"}
        if op in ("register", "heartbeat"):
            self.registry.register(msg["address"])
            return {"ok": True}
        if op == "deregister":
            self.registry.deregister(msg["address"])
            return {"ok": True}
        if op == "workers":
            return {"ok": True, "workers": self.registry.live()}
        if op == "stats":
            if self.stats_source is not None:
                return {"ok": True, "stats": self.stats_source.stats()}
            return {"ok": True, "stats": {"workers": self.registry.live()}}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def close(self) -> None:
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# dispatch bookkeeping
# ----------------------------------------------------------------------
class _DispatchState:
    """One tenant dispatch: its rows, chunk countdown, and failure flag.

    ``blob`` is the base64 problem pickle for the ``put_problem`` frame.
    """

    __slots__ = ("token_hex", "blob", "X", "out", "remaining", "counters",
                 "n_sims", "error", "event", "_lock")

    def __init__(self, token_hex: str, blob: str, X: np.ndarray):
        self.token_hex = token_hex
        self.blob = blob
        self.X = X
        self.out: list = [None] * len(X)
        self.remaining = 0           # outstanding chunk count, set at enqueue
        self.counters: dict[str, float] = {}
        self.n_sims = 0
        self.error: str | None = None
        self.event = threading.Event()
        self._lock = threading.Lock()

    def aborted(self) -> bool:
        return self.error is not None

    def complete(self, start: int, stop: int, rows, counters: dict,
                 n_sims: int) -> None:
        with self._lock:
            self.out[start:stop] = [np.asarray(r, dtype=np.float64)
                                    for r in rows]
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0.0) + value
            self.n_sims += int(n_sims)
            self.remaining -= 1
            if self.remaining <= 0 and self.error is None:
                self.event.set()

    def abort(self, message: str) -> None:
        with self._lock:
            if self.error is None:
                self.error = message
            self.event.set()


class _Job:
    """One chunk of one tenant's dispatch, as queued for the fleet.

    A job may be *speculatively duplicated* by the hedge sweep: the same
    object is queued again and picked by a second host, ``inflight`` counts
    the live copies, and ``completed`` makes completion first-wins — the
    losing copy's reply (or failure) is discarded, never double-written.
    All hedge/duplicate fields are guarded by the coordinator's lock.
    """

    __slots__ = ("tenant", "state", "start", "stop", "requeues", "trail",
                 "hosts", "started", "inflight", "completed", "hedged",
                 "hedge_pending")

    def __init__(self, tenant: str, state: _DispatchState, start: int,
                 stop: int):
        self.tenant = tenant
        self.state = state
        self.start = start
        self.stop = stop
        self.requeues = 0
        self.trail: list[str] = []  # per-host failure history
        self.hosts: set[str] = set()   # addresses that picked this job
        self.started: float | None = None  # monotonic ts of first pick
        self.inflight = 0              # copies currently on some worker
        self.completed = False         # first reply already written back
        self.hedged = False            # a speculative copy was issued
        self.hedge_pending = False     # speculative copy queued, not picked


class _Tenant:
    """Per-study scheduler state and accounting."""

    __slots__ = ("name", "priority", "credit", "queue", "closed", "inflight",
                 "n_dispatches", "n_chunks", "n_designs", "worker_sims",
                 "t_first", "t_last", "engine_ref")

    def __init__(self, name: str, priority: float):
        self.name = name
        self.priority = priority
        self.credit = 0.0
        self.queue: deque[_Job] = deque()
        self.closed = False
        self.inflight = 0      # chunk copies currently on some worker
        self.n_dispatches = 0
        self.n_chunks = 0
        self.n_designs = 0     # designs entering the fleet (post engine-cache)
        self.worker_sims = 0   # simulations the workers reported running
        self.t_first: float | None = None
        self.t_last: float | None = None
        self.engine_ref = None


class _TenantDispatcher:
    """The remote-style dispatcher injected into a tenant's engine.

    With ``owns_fleet`` (the private coordinator of an
    ``EvalEngine("remote", hosts=...)``) closing it closes the coordinator.
    """

    def __init__(self, coordinator: "FleetCoordinator", tenant: str,
                 owns_fleet: bool = False):
        self._coordinator = coordinator
        self.tenant = tenant
        self.owns_fleet = owns_fleet

    def dispatch(self, token: bytes, blob: bytes, X: np.ndarray):
        return self._coordinator._dispatch(self.tenant, token, blob, X)

    def close(self) -> None:
        """Detach the tenant; a shared fleet stays up, a private one closes."""
        self._coordinator._detach(self.tenant)
        if self.owns_fleet:
            self._coordinator.close()


def private_fleet(hosts, *,
                  chunk_timeout: float | None = None) -> _TenantDispatcher:
    """The dispatcher of ``EvalEngine("remote", hosts=...)``: the only tenant
    of a private :class:`FleetCoordinator` pinned to ``hosts``, with no
    registry server, so its pins alone serve it.  Closing the dispatcher
    closes the coordinator."""
    fleet = FleetCoordinator(hosts=hosts, chunk_timeout=chunk_timeout)
    return fleet._attach("remote", owns_fleet=True)


# ----------------------------------------------------------------------
# per-host pump
# ----------------------------------------------------------------------
class _HostPump:
    """Feeds one worker: :attr:`FleetCoordinator.SLOTS_PER_HOST` threads
    pulling scheduled chunks onto a shared multiplexed connection, so the
    worker's queue never drains dry between a reply landing and the next
    chunk arriving."""

    def __init__(self, coordinator: "FleetCoordinator", address: str):
        self.coordinator = coordinator
        self.address = address
        self.addr = parse_host(address)
        self.stop = threading.Event()
        self.n_chunks = 0
        self.n_sims = 0
        self.inflight = 0
        self._conn: MultiplexedConnection | None = None  # guarded by: _conn_lock
        self._conn_lock = threading.Lock()
        # Intentionally lock-free (not annotated): slot threads race on the
        # shipped-token set, but set ops are GIL-atomic and the worst case
        # is a redundant idempotent put_problem re-ship — never corruption.
        self._shipped: set[str] = set()
        self._threads = [
            threading.Thread(target=self._run,
                             name=f"fleet-pump-{address}-{i}", daemon=True)
            for i in range(coordinator.SLOTS_PER_HOST)]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def close(self) -> None:
        """Stop the pump; in-flight requests fail over to other hosts."""
        self.stop.set()
        with self._conn_lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def _connection(self) -> MultiplexedConnection:
        with self._conn_lock:
            if self.stop.is_set():
                raise ConnectionError("pump stopped")
            if self._conn is None:
                self._conn = MultiplexedConnection(
                    self.addr,
                    connect_timeout=self.coordinator.connect_timeout)
            return self._conn

    def _run(self) -> None:
        coord = self.coordinator
        try:
            conn = self._connection()
        except Exception as exc:
            coord._pump_failed(self, exc)
            return
        while not self.stop.is_set():
            job = coord._next_job(self.stop, self.address)
            if job is None:
                return
            try:
                reply = self._eval(conn, job)
            except _EvalRejected as exc:
                # Deterministic rejection: abort only this dispatch, keep
                # serving — the connection (and the worker) are healthy.
                coord._job_failed(
                    self, job,
                    f"remote evaluation rejected: {self.address}: {exc}",
                    fatal=True)
                continue
            except Exception as exc:
                coord._job_failed(self, job, f"{self.address}: {exc}",
                                  fatal=False)
                coord._pump_failed(self, exc)
                return
            coord._job_done(self, job, reply)

    def _eval(self, conn: MultiplexedConnection, job: _Job) -> dict:
        state = job.state
        if state.token_hex not in self._shipped:
            self._ship(conn, state)
        request = {"op": "eval", "token": state.token_hex,
                   "X": state.X[job.start:job.stop].tolist()}
        chunk_timeout = self.coordinator.chunk_timeout
        deadline = (None if chunk_timeout is None
                    else chunk_timeout * max(1, job.stop - job.start))
        for attempt in (0, 1):
            reply = conn.request(request, timeout=deadline)
            if reply.get("ok"):
                return reply
            if reply.get("need_problem") and attempt == 0:
                # Worker restarted / LRU-evicted the problem: re-ship once.
                self._shipped.discard(state.token_hex)
                self._ship(conn, state)
                continue
            raise _EvalRejected(reply.get("error", "request rejected"))
        raise ConnectionError("unreachable")  # pragma: no cover

    def _ship(self, conn: MultiplexedConnection, state: _DispatchState) -> None:
        chunk_timeout = self.coordinator.chunk_timeout
        timeout = (None if chunk_timeout is None
                   else max(self.coordinator.connect_timeout, chunk_timeout))
        reply = conn.request({"op": "put_problem", "token": state.token_hex,
                              "blob": state.blob}, timeout=timeout)
        if not reply.get("ok"):
            raise _EvalRejected(
                f"put_problem rejected: {reply.get('error', reply)}")
        self._shipped.add(state.token_hex)


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------
class FleetCoordinator:
    """Serve many concurrent Studies over one elastic worker fleet.

    Parameters
    ----------
    registry:
        A :class:`WorkerRegistry` to watch (default: a fresh one).  Start a
        :class:`RegistryServer` for it with :meth:`listen` so workers can
        ``--register`` themselves.
    hosts:
        Optional static ``["host:port", ...]`` pins (no heartbeats
        required).  A failed pin is quarantined, never dropped, and retried
        once its quarantine ends.  Without :meth:`listen` the pins are the
        only workers: once all of them have failed, queued dispatches abort
        with :class:`ServiceError` instead of waiting.
    heartbeat_timeout:
        Seconds without a heartbeat before a (non-static) worker ages out.
    poll_interval:
        How often the watcher reconciles pumps against the registry.
    max_chunk_requeues:
        Failover budget per chunk (default: ``2 ×`` the live host count at
        requeue time, minimum 2) before the owning dispatch fails with
        :class:`ServiceError`.
    connect_timeout:
        TCP connect timeout towards workers.
    chunk_timeout:
        Per-design eval deadline in seconds (a chunk of ``n`` designs must
        be answered within ``chunk_timeout * n`` seconds).  A worker that
        accepts a chunk and never replies then counts as a retryable
        transport failure — dropped, quarantined, its chunk re-queued under
        the bounded budget — instead of hanging the dispatch.  ``None``
        (default) means no deadline.
    hedge_factor:
        Straggler threshold multiplier: once at least
        ``HEDGE_MIN_SAMPLES`` chunk latencies have been observed, a chunk
        in flight for longer than ``max(hedge_min_s, hedge_factor * p50)``
        is speculatively re-queued for a *different* host (at most once per
        chunk, and only when the fleet has spare slots).  First reply wins;
        the loser is discarded by the job's completion flag (the wire layer
        already discards late replies by request id).  Safe because evals
        are deterministic and cache-deduped — histories stay bit-identical.
        ``None`` (default) disables hedging.
    hedge_min_s:
        Floor for the straggler threshold, so sub-millisecond p50s don't
        hedge every scheduling hiccup (default 0.25 s).

    Tenants are created with :meth:`engine`; scheduling is weighted deficit
    round-robin at chunk granularity (see module docstring).  The
    coordinator is in-process: Studies in *this* process share it directly
    (threads), remote observers read :meth:`stats` through the registry
    server's ``stats`` op.
    """

    #: completed-chunk latencies required before hedging arms itself.
    HEDGE_MIN_SAMPLES = 5

    #: cap (seconds) on the exponential quarantine backoff of a failed host.
    QUARANTINE_CAP_S = 30.0

    #: chunks kept in flight per worker: two pipeline the wire round-trip
    #: behind the worker's current evaluation (it still evaluates serially).
    SLOTS_PER_HOST = 2

    def __init__(self, *, registry: WorkerRegistry | None = None, hosts=(),
                 heartbeat_timeout: float = 10.0, poll_interval: float = 0.2,
                 max_chunk_requeues: int | None = None,
                 connect_timeout: float = 10.0,
                 chunk_timeout: float | None = None,
                 hedge_factor: float | None = None,
                 hedge_min_s: float = 0.25):
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be > 0 seconds")
        if hedge_factor is not None and hedge_factor <= 1.0:
            raise ValueError("hedge_factor must be > 1.0")
        self.registry = registry or WorkerRegistry(timeout=heartbeat_timeout)
        for host in hosts:
            self.registry.register(host, static=True)
        self.poll_interval = max(0.02, float(poll_interval))
        self.max_chunk_requeues = max_chunk_requeues
        self.connect_timeout = float(connect_timeout)
        self.chunk_timeout = (None if chunk_timeout is None
                              else float(chunk_timeout))
        self.hedge_factor = (None if hedge_factor is None
                             else float(hedge_factor))
        self.hedge_min_s = float(hedge_min_s)
        self._cond = threading.Condition()
        self._tenants: dict[str, _Tenant] = {}   # guarded by: _cond
        self._order: list[str] = []   # round-robin ring; guarded by: _cond
        self._rr = -1                 # guarded by: _cond
        self._pumps: dict[str, _HostPump] = {}   # guarded by: _cond
        self._quarantine: dict[str, float] = {}  # retry-after per host; guarded by: _cond
        self._failures: dict[str, tuple[int, str]] = {}  # streak, last error; guarded by: _cond
        self._running: set[_Job] = set()         # live jobs; guarded by: _cond
        self._latencies: deque[float] = deque(maxlen=512)  # guarded by: _cond
        self._ids = count(1)
        self._closed = False                     # guarded by: _cond
        self._server: RegistryServer | None = None
        self.n_requeues = 0        # guarded by: _cond
        self.n_hedges = 0          # speculative duplicates; guarded by: _cond
        self.n_hedge_discards = 0  # losing copies dropped; guarded by: _cond
        self._sync_pumps()  # static hosts get pumps before the first dispatch
        self._watcher = threading.Thread(target=self._watch,
                                         name="fleet-watcher", daemon=True)
        self._watcher.start()

    # -- public surface ----------------------------------------------------
    def listen(self, host: str = "127.0.0.1", port: int = 0) -> RegistryServer:
        """Start the registry/metrics endpoint; workers ``--register`` here."""
        if self._server is None:
            self._server = RegistryServer(self.registry, host, port,
                                          stats_source=self)
        return self._server

    def engine(self, tenant: str | None = None, *, priority: float = 1.0,
               **engine_kwargs):
        """A standard :class:`~repro.core.engine.EvalEngine` whose misses are
        scheduled on the fleet under ``tenant``'s fair-share ``priority``.

        The engine owns its own cache tiers (``cache_size``/``cache_dir``
        and friends pass through), so per-tenant hit-rates stay separable;
        closing it detaches the tenant without touching the fleet.
        """
        from .engine import EvalEngine
        dispatcher = self._attach(tenant, priority=priority)
        engine = EvalEngine(dispatcher=dispatcher, **engine_kwargs)
        with self._cond:
            self._tenants[dispatcher.tenant].engine_ref = weakref.ref(engine)
        return engine

    def _attach(self, tenant: str | None, *, priority: float = 1.0,
                owns_fleet: bool = False) -> _TenantDispatcher:
        """Register a tenant and return the dispatcher that feeds it."""
        if priority <= 0:
            raise ValueError("priority must be > 0")
        with self._cond:
            if self._closed:
                raise ServiceError("fleet coordinator is closed")
            name = tenant or f"tenant-{next(self._ids)}"
            existing = self._tenants.get(name)
            if existing is not None and not existing.closed:
                raise ValueError(f"tenant {name!r} is already attached")
            record = _Tenant(name, float(priority))
            self._tenants[name] = record
            if name not in self._order:
                self._order.append(name)
        return _TenantDispatcher(self, name, owns_fleet)

    def stats(self) -> dict:
        """Control-plane metrics: queue depth, per-tenant rates, workers."""
        with self._cond:
            tenants = {}
            engines = {}
            for name in self._order:
                record = self._tenants[name]
                engine = (record.engine_ref()
                          if record.engine_ref is not None else None)
                elapsed = None
                if record.t_first is not None and record.t_last is not None:
                    elapsed = record.t_last - record.t_first
                entry = {
                    "priority": record.priority,
                    "queued_chunks": len(record.queue),
                    "inflight_chunks": record.inflight,
                    "dispatches": record.n_dispatches,
                    "chunks": record.n_chunks,
                    "designs": record.n_designs,
                    "worker_sims": record.worker_sims,
                    "sims_per_sec": (round(record.worker_sims / elapsed, 3)
                                     if elapsed and elapsed > 0 else 0.0),
                    "closed": record.closed,
                }
                if engine is not None:
                    engines[name] = engine
                tenants[name] = entry
            workers = {address: {"chunks": pump.n_chunks,
                                 "sims": pump.n_sims,
                                 "inflight": pump.inflight,
                                 "slots": self.SLOTS_PER_HOST}
                       for address, pump in self._pumps.items()}
            queue_depth = sum(len(t.queue) for t in self._tenants.values())
            inflight = sum(t.inflight for t in self._tenants.values())
            latencies = sorted(self._latencies)
            requeues = self.n_requeues
            hedges = self.n_hedges
            hedge_discards = self.n_hedge_discards
        # Engine counters come from each engine's own lock — taken *after*
        # _cond is released so the two locks never nest.
        for name, engine in engines.items():
            counters = engine.counters_snapshot()
            hits = counters["n_cache_hits"]
            total = hits + counters["n_sim_calls"]
            tenants[name]["cache_hits"] = hits
            tenants[name]["cache_hit_rate"] = (round(hits / total, 4)
                                               if total else 0.0)
            tenants[name]["engine_sims"] = counters["n_sim_calls"]
        latency = {"n": len(latencies)}
        if latencies:
            latency["p50"] = round(float(np.percentile(latencies, 50)), 6)
            latency["p99"] = round(float(np.percentile(latencies, 99)), 6)
        return {"queue_depth": queue_depth, "inflight_chunks": inflight,
                "n_workers": len(workers), "workers": workers,
                "tenants": tenants, "requeues": requeues,
                "hedges": hedges,
                "hedge_discards": hedge_discards,
                "chunk_latency": latency,
                "registry": {"live": self.registry.live(),
                             **self.registry.counters()}}

    def chunk_latencies(self) -> list[float]:
        """Recent completed-chunk wall latencies (first pick → first reply)."""
        with self._cond:
            return list(self._latencies)

    def close(self) -> None:
        """Stop pumps and watcher; abort queued/in-flight dispatches."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            pumps = list(self._pumps.values())
            self._pumps.clear()
            orphans: list[_Job] = []
            for record in self._tenants.values():
                orphans.extend(record.queue)
                record.queue.clear()
            self._cond.notify_all()
        for job in orphans:
            job.state.abort("fleet coordinator closed")
        for pump in pumps:
            pump.close()
        if self._server is not None:
            self._server.close()
        self._watcher.join(timeout=2.0)

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        with self._cond:
            return (f"FleetCoordinator(workers={len(self._pumps)}, "
                    f"tenants={len(self._tenants)}, "
                    f"closed={self._closed})")

    # -- tenant dispatch ---------------------------------------------------
    def _dispatch(self, tenant: str, token: bytes, blob: bytes, X: np.ndarray):
        state = _DispatchState(token.hex(), base64.b64encode(blob).decode("ascii"),
                               np.asarray(X))
        with self._cond:
            if self._closed:
                raise ServiceError("fleet coordinator is closed")
            record = self._tenants.get(tenant)
            if record is None or record.closed:
                raise ServiceError(f"tenant {tenant!r} is detached")
            n_consumers = max(1, len(self._pumps)) * self.SLOTS_PER_HOST
            jobs = [_Job(tenant, state, start, stop)
                    for start, stop in _chunk_ranges(len(X), n_consumers)]
            state.remaining = len(jobs)
            record.queue.extend(jobs)
            record.n_dispatches += 1
            record.n_designs += len(X)
            if record.t_first is None:
                record.t_first = time.monotonic()
            self._cond.notify_all()
        # Elastic by design: with zero live workers the chunks wait for one
        # to register; close() (or a requeue-budget blowout) aborts them.
        # A coordinator without a registry server is served by its pins
        # alone: once every pin has failed the chunks abort at once.
        while not state.event.wait(0.1):
            pins = self.registry.pins()
            with self._cond:
                closed = self._closed
                self._abort_if_exhausted_locked(pins)
            if closed:
                state.abort("fleet coordinator closed")
        if state.error is not None:
            raise ServiceError(state.error)
        rows = np.vstack(state.out)
        return rows, dict(state.counters), state.n_sims

    def _detach(self, tenant: str) -> None:
        with self._cond:
            record = self._tenants.get(tenant)
            if record is None or record.closed:
                return
            record.closed = True
            orphans = list(record.queue)
            record.queue.clear()
        for job in orphans:
            job.state.abort(f"tenant {tenant!r} engine closed mid-dispatch")

    # -- scheduler ---------------------------------------------------------
    def _next_job(self, stop: threading.Event,
                  address: str | None = None) -> _Job | None:
        """Block until a chunk is scheduled for this pump (or it stops)."""
        with self._cond:
            while True:
                if self._closed or stop.is_set():
                    return None
                job = self._pick_locked(address)
                if job is not None:
                    return job
                self._cond.wait(0.1)

    def _pick_locked(self, address: str | None = None) -> _Job | None:  # holds: _cond
        """Weighted deficit round-robin over the queued tenants.

        Serving a chunk costs one credit; when no queued tenant can afford
        one, every queued tenant's credit is topped up by its priority —
        so over time tenant A receives ``priority_A / priority_B`` times
        tenant B's chunks, and a tenant with *any* queue always gets a
        turn within one ring cycle (starvation-free).

        A *speculative* copy (hedge) is deferred when the asking pump's
        ``address`` already ran the original — hedging only pays when the
        duplicate lands on a different host — unless this host is the only
        one alive.  Deferrals are bounded by the total queue length, so a
        pump that can serve nothing simply waits instead of spinning.
        """
        deferred = 0
        while True:
            ready = [name for name in self._order
                     if self._tenants[name].queue]
            if not ready:
                return None
            while not any(self._tenants[name].credit >= 1.0
                          for name in ready):
                for name in ready:
                    record = self._tenants[name]
                    record.credit += record.priority
            ring = len(self._order)
            picked = None
            for step in range(1, ring + 1):
                idx = (self._rr + step) % ring
                record = self._tenants[self._order[idx]]
                if record.queue and record.credit >= 1.0:
                    self._rr = idx
                    picked = record
                    break
            if picked is None:  # pragma: no cover - refill guarantees one
                return None
            picked.credit -= 1.0
            job = picked.queue.popleft()
            if job.state.aborted() or job.completed:
                picked.credit += 1.0  # discarded, not served
                if job.completed and job.hedge_pending:
                    # speculative copy answered before it was even picked
                    self.n_hedge_discards += 1
                job.hedge_pending = False
                continue
            if (job.hedge_pending and address is not None
                    and address in job.hosts and len(self._pumps) > 1):
                picked.queue.append(job)
                picked.credit += 1.0
                deferred += 1
                if deferred >= sum(len(t.queue)
                                   for t in self._tenants.values()):
                    return None
                continue
            job.hedge_pending = False
            if address is not None:
                job.hosts.add(address)
            if job.started is None:
                job.started = time.monotonic()
            job.inflight += 1
            self._running.add(job)
            picked.n_chunks += 1
            picked.inflight += 1
            return job

    # -- pump callbacks ----------------------------------------------------
    def _job_done(self, pump: _HostPump, job: _Job, reply: dict) -> None:
        rows = reply["F"]
        n_sims = int(reply.get("n_sims", len(rows)))
        now = time.monotonic()
        with self._cond:
            first = not job.completed
            job.completed = True
            job.inflight -= 1
            if job.inflight <= 0:
                self._running.discard(job)
            record = self._tenants.get(job.tenant)
            if record is not None:
                record.inflight -= 1
                record.t_last = now
                if first:
                    record.worker_sims += n_sims
            pump.n_chunks += 1
            pump.n_sims += n_sims
            if first:
                if job.started is not None:
                    self._latencies.append(now - job.started)
                self._failures.pop(pump.address, None)  # host is healthy
            else:
                # A hedge twin (or a late original) already wrote the rows:
                # discard this reply.  Determinism makes both bit-identical.
                self.n_hedge_discards += 1
        if first:
            job.state.complete(job.start, job.stop, rows,
                               reply.get("counters", {}), n_sims)

    def _job_failed(self, pump: _HostPump, job: _Job, message: str, *,
                    fatal: bool) -> None:
        with self._cond:
            record = self._tenants.get(job.tenant)
            if record is not None:
                record.inflight -= 1
            job.inflight -= 1
            if job.inflight <= 0 and not job.hedge_pending:
                self._running.discard(job)
            if job.completed:
                return  # a speculative twin already answered this chunk
            if fatal or job.state.aborted():
                if fatal:
                    job.state.abort(message)
                self._running.discard(job)
                return
            job.requeues += 1
            job.trail.append(message)
            self.n_requeues += 1
            if job.inflight > 0 or job.hedge_pending:
                # A twin copy is still running (or queued): it owns the
                # chunk now.  If it fails too, *its* _job_failed requeues.
                return
            budget = (self.max_chunk_requeues
                      if self.max_chunk_requeues is not None
                      else 2 * max(1, len(self._pumps)))
            budget = max(2, budget)
            if job.requeues > budget:
                job.state.abort(
                    f"chunk [{job.start}:{job.stop}] abandoned after "
                    f"{job.requeues - 1} failovers: " + "; ".join(job.trail))
                return
            if self._closed or record is None or record.closed:
                job.state.abort("fleet coordinator closed with chunk in flight")
                return
            record.queue.appendleft(job)  # keep index order roughly intact
            self._cond.notify_all()

    def _pump_failed(self, pump: _HostPump, exc: Exception) -> None:
        """Drop a host after a transport failure (idempotent per pump).

        The address is quarantined under capped exponential backoff with
        deterministic jitter — consecutive failures double the retry-after
        (up to :attr:`QUARANTINE_CAP_S`), a success resets it.  A pin stays
        registered, so the watcher retries it once its quarantine ends; any
        other address is deregistered: a *live* heartbeating worker
        re-registers itself on its next beat, while a dead one stays gone.
        When this leaves a server-less coordinator with no pin to serve it,
        queued chunks abort at once (see :meth:`_abort_if_exhausted_locked`).
        """
        pins = self.registry.pins()
        with self._cond:
            if self._pumps.get(pump.address) is pump:
                del self._pumps[pump.address]
                attempt = self._failures.get(pump.address, (0, ""))[0]
                self._failures[pump.address] = (attempt + 1, str(exc))
                self._quarantine[pump.address] = (
                    time.monotonic() + backoff_delay(
                        attempt, base=2 * self.poll_interval,
                        cap=self.QUARANTINE_CAP_S, key=pump.address))
                self._abort_if_exhausted_locked(pins)
            self._cond.notify_all()
        pump.close()
        if pump.address not in pins:
            self.registry.deregister(pump.address)

    def _abort_if_exhausted_locked(self, pins) -> None:  # holds: _cond
        """Abort queued work that no worker can serve.

        Only a coordinator without a registry server qualifies, since its
        pins are then its only possible workers: no pump is alive and every
        pin has failed since its last success.  Every tenant's queued
        chunks then abort with the per-host failure trail.  A fleet with no
        pins keeps waiting for workers to join.
        """
        if self._pumps or self._server is not None or not pins:
            return
        if any(address not in self._failures for address in pins):
            return
        trail = "; ".join(f"{address}: {self._failures[address][1]}"
                          for address in sorted(pins))
        for record in self._tenants.values():
            stranded, record.queue = record.queue, deque()
            for job in stranded:
                job.state.abort("remote evaluation failed on all hosts: "
                                + trail)

    # -- hedged re-dispatch ------------------------------------------------
    def _hedge_sweep(self) -> None:
        """Speculatively re-queue straggling in-flight chunks (at most once
        each) for a different host — first reply wins, the loser is
        discarded by the job's completion flag."""
        if self.hedge_factor is None:
            return
        now = time.monotonic()
        with self._cond:
            if len(self._pumps) < 2:
                return  # nowhere different to send a duplicate
            if len(self._latencies) < self.HEDGE_MIN_SAMPLES:
                return
            p50 = float(np.percentile(self._latencies, 50))
            threshold = max(self.hedge_min_s, self.hedge_factor * p50)
            # Only burn *spare* capacity on speculation: never let hedges
            # displace first-copy work already queued.
            capacity = len(self._pumps) * self.SLOTS_PER_HOST
            backlog = sum(t.inflight + len(t.queue)
                          for t in self._tenants.values())
            spare = capacity - backlog
            hedged_any = False
            for job in list(self._running):
                if spare <= 0:
                    break
                if (job.completed or job.hedged or job.started is None
                        or job.state.aborted()):
                    continue
                if now - job.started < threshold:
                    continue
                record = self._tenants.get(job.tenant)
                if record is None or record.closed:
                    continue
                job.hedged = True
                job.hedge_pending = True
                record.queue.appendleft(job)
                self.n_hedges += 1
                spare -= 1
                hedged_any = True
            if hedged_any:
                self._cond.notify_all()

    # -- registry watcher --------------------------------------------------
    def _watch(self) -> None:
        # Unlocked peek at the monotonic closed flag: close() joins this
        # thread with a timeout, a stale read costs one poll interval at
        # most.  # lint: disable=RP02
        while not self._closed:
            try:
                self._sync_pumps()
                self._hedge_sweep()
            except Exception:  # pragma: no cover - watcher must survive
                pass
            time.sleep(self.poll_interval)

    def _sync_pumps(self) -> None:
        """Reconcile pumps with the registry: start joiners, drop age-outs."""
        live = set(self.registry.live())
        now = time.monotonic()
        to_start: list[_HostPump] = []
        to_stop: list[_HostPump] = []
        with self._cond:
            if self._closed:
                return
            for address in sorted(live):
                if address in self._pumps:
                    continue
                if self._quarantine.get(address, 0.0) > now:
                    continue
                pump = _HostPump(self, address)
                self._pumps[address] = pump
                to_start.append(pump)
            for address in list(self._pumps):
                if address not in live:
                    to_stop.append(self._pumps.pop(address))
            if to_start or to_stop:
                self._cond.notify_all()
        for pump in to_stop:
            # In-flight chunks fail over: closing the connection raises in
            # the pump threads, whose requeue puts the chunks back for the
            # surviving hosts.
            pump.close()
        for pump in to_start:
            pump.start()
