"""Deterministic fault injection for the evaluation service and fleet.

The failure-hardening layer (chunk deadlines, bounded failover, hedged
re-dispatch, backoff quarantine) is only worth trusting if every recovery
path is *provoked on demand* and pinned by tests.  This module provides
that provocation as data, not hand-scripted fakes:

* :class:`FaultSpec` — one fault: a ``kind`` (what goes wrong), an ``op``
  filter (which request frames it targets) and a trigger (``nth`` /
  ``every`` exact counters, or a seeded ``probability``).
* :class:`FaultPlan` — an ordered set of specs plus a seed.  The plan is
  consulted once per matching request frame and its decisions are
  *reproducible*: count-based triggers are exact, and the probability
  trigger draws from ``random.Random(seed)`` so the same frame sequence
  always yields the same fault sequence.
* :class:`ChaosProxy` — a frame-level TCP proxy wedged between a
  coordinator and one worker.  It speaks the service's length-prefixed
  JSON frames, forwards them both ways, and injects the plan's faults at
  the transport seam — the same seam real failures hit — so the
  coordinator under test runs *unmodified* production code.

Fault kinds
-----------

==============  ========================================================
``delay``       hold the matching reply ``delay_s`` seconds before
                forwarding (the injected-straggler model; exercises the
                hedged re-dispatch path)
``hang``        swallow the reply: the worker answered but the
                coordinator never hears it (exercises ``chunk_timeout``)
``drop``        close both sides mid-request (transport failure and
                failover requeue)
``crash``       kill the whole proxy — connections die and further
                connects are refused, like a worker process crash
``duplicate``   forward the matching reply twice (the wire layer must
                discard the second copy by request id)
``reorder``     hold the matching reply until the next reply passes, then
                release it (out-of-order completion on one connection)
``corrupt``     send a garbage frame instead of the reply (reader-thread
                death: every pending waiter must fail promptly)
==============  ========================================================

Typical wiring (see ``tests/core/test_chaos.py``)::

    plan = FaultPlan([FaultSpec("hang", op="eval", nth=2)], seed=7)
    proxy = ChaosProxy(worker.address, plan)
    fleet = FleetCoordinator(hosts=[proxy.address, other.address],
                             chunk_timeout=0.5)
    # ... run Studies; assert bit-identical history, no lost/dup sims
    proxy.close()

Determinism note: with ``nth``/``every`` triggers the injected fault
sequence is exact regardless of thread scheduling.  ``probability``
triggers are reproducible *given the same frame arrival order* — use them
for soak-style runs, counters for pinning tests.
"""

from __future__ import annotations

import logging
import random
import socket
import struct
import threading
from collections import deque

from .service import recv_msg, send_msg, parse_host

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "ChaosProxy"]

_log = logging.getLogger("repro.core.chaos")

FAULT_KINDS = ("delay", "hang", "drop", "crash", "duplicate", "reorder",
               "corrupt")

#: fault kinds that act on the reply path (decided at request time,
#: executed when the matching reply comes back from the worker).
_REPLY_KINDS = ("delay", "hang", "duplicate", "reorder", "corrupt")


class FaultSpec:
    """One injectable fault: kind + target op + trigger.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    op:
        Request ``op`` this spec watches (default ``"eval"``; ``"*"``
        matches every frame).  Each spec counts *its own* matching frames.
    nth:
        Fire exactly once, on the Nth matching frame (1-based).
    every:
        Fire on every Nth matching frame.
    probability:
        Fire per matching frame with this probability, drawn from the
        plan's seeded RNG.
    delay_s:
        Hold time for ``delay`` (default 0.25 s).

    Exactly one trigger (``nth``, ``every`` or ``probability``) must be
    given.
    """

    __slots__ = ("kind", "op", "nth", "every", "probability", "delay_s")

    def __init__(self, kind: str, *, op: str = "eval", nth: int | None = None,
                 every: int | None = None, probability: float = 0.0,
                 delay_s: float = 0.25):
        if kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {kind!r}")
        triggers = sum((nth is not None, every is not None, probability > 0))
        if triggers != 1:
            raise ValueError("give exactly one of nth=, every=, probability=")
        if nth is not None and nth < 1:
            raise ValueError("nth is 1-based")
        if every is not None and every < 1:
            raise ValueError("every must be >= 1")
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.kind = kind
        self.op = op
        self.nth = nth
        self.every = every
        self.probability = float(probability)
        self.delay_s = float(delay_s)

    def __repr__(self) -> str:
        trig = (f"nth={self.nth}" if self.nth is not None
                else f"every={self.every}" if self.every is not None
                else f"p={self.probability:g}")
        return f"FaultSpec({self.kind}, op={self.op!r}, {trig})"


class FaultPlan:
    """A seeded, reproducible schedule of faults (thread-safe).

    :meth:`decide` is called once per request frame the proxy sees; it
    returns the specs that fire on that frame.  Counters are per-spec, so
    two specs watching ``eval`` frames count independently.  ``fired``
    tallies executions by kind for assertions.
    """

    def __init__(self, specs, *, seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)   # guarded by: _lock
        self._seen = [0] * len(self.specs)     # guarded by: _lock
        self._lock = threading.Lock()
        self.fired: dict[str, int] = {}        # guarded by: _lock

    def decide(self, op: str) -> list[FaultSpec]:
        """The specs firing on this frame (advances the matching counters)."""
        hits: list[FaultSpec] = []
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.op not in ("*", op):
                    continue
                self._seen[i] += 1
                n = self._seen[i]
                if spec.nth is not None:
                    hit = n == spec.nth
                elif spec.every is not None:
                    hit = n % spec.every == 0
                else:
                    hit = self._rng.random() < spec.probability
                if hit:
                    hits.append(spec)
                    self.fired[spec.kind] = self.fired.get(spec.kind, 0) + 1
        return hits

    def __repr__(self) -> str:
        with self._lock:
            return (f"FaultPlan(seed={self.seed}, "
                    f"specs={list(self.specs)!r}, fired={self.fired})")


class _Session:
    """One client connection relayed to one upstream connection."""

    def __init__(self, proxy: "ChaosProxy", client: socket.socket):
        self.proxy = proxy
        self.client = client
        self.upstream: socket.socket | None = None
        self._lock = threading.Lock()
        # Faults decided at request time, executed on the reply path.
        # Id-carrying requests map by id; id-less (v1/hello) replies come
        # back strictly in order, so a FIFO queue lines them up.
        self._by_id: dict[int, list[FaultSpec]] = {}  # guarded by: _lock
        self._fifo: deque[list[FaultSpec]] = deque()  # guarded by: _lock
        self._held: dict | None = None  # "reorder" buffer

    def run(self) -> None:
        try:
            self.upstream = socket.create_connection(
                self.proxy.upstream_addr, timeout=10.0)
        except OSError:
            self.close()
            return
        self.proxy._track(self.upstream)
        replies = threading.Thread(target=self._pump_replies, daemon=True,
                                   name="chaos-replies")
        replies.start()
        self._pump_requests()

    # -- client -> upstream ------------------------------------------------
    def _pump_requests(self) -> None:
        try:
            while not self.proxy.stopped:
                msg = recv_msg(self.client)
                if msg is None:
                    break
                faults = self.proxy.plan.decide(msg.get("op", ""))
                kinds = [spec.kind for spec in faults]
                if "crash" in kinds:
                    _log.info("chaos: crash injected (op=%s)", msg.get("op"))
                    self.proxy.crash()
                    return
                if "drop" in kinds:
                    _log.info("chaos: drop injected (op=%s)", msg.get("op"))
                    break
                reply_faults = [spec for spec in faults
                                if spec.kind in _REPLY_KINDS]
                rid = msg.get("id")
                with self._lock:
                    if rid is not None:
                        self._by_id[int(rid)] = reply_faults
                    else:
                        self._fifo.append(reply_faults)
                send_msg(self.upstream, msg)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            self.close()

    # -- upstream -> client ------------------------------------------------
    def _pump_replies(self) -> None:
        try:
            while not self.proxy.stopped:
                reply = recv_msg(self.upstream)
                if reply is None:
                    break
                rid = reply.get("id")
                with self._lock:
                    if rid is not None:
                        faults = self._by_id.pop(int(rid), [])
                    else:
                        faults = self._fifo.popleft() if self._fifo else []
                kinds = [spec.kind for spec in faults]
                if "hang" in kinds:
                    # The worker answered; the coordinator never hears it.
                    _log.info("chaos: hang injected (id=%s)", rid)
                    continue
                for spec in faults:
                    if spec.kind == "delay":
                        self.proxy._stop.wait(spec.delay_s)
                if "corrupt" in kinds:
                    _log.info("chaos: corrupt frame injected (id=%s)", rid)
                    self._send_garbage()
                    break
                if "reorder" in kinds:
                    self._held = reply  # release after the next reply
                    continue
                send_msg(self.client, reply)
                if "duplicate" in kinds:
                    _log.info("chaos: duplicate reply injected (id=%s)", rid)
                    send_msg(self.client, reply)
                if self._held is not None:
                    held, self._held = self._held, None
                    send_msg(self.client, held)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            self.close()

    def _send_garbage(self) -> None:
        # A well-framed payload that is not JSON: the reader thread dies
        # decoding it, which must fail every pending waiter promptly.
        payload = b"\xff\xfe not json \x00"
        try:
            self.client.sendall(struct.pack(">I", len(payload)) + payload)
        except OSError:
            pass

    def close(self) -> None:
        for sock in (self.client, self.upstream):
            if sock is None:
                continue
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A fault-injecting TCP proxy in front of one worker.

    Point a coordinator at :attr:`address` instead of the worker's own;
    every frame is relayed through :class:`FaultPlan`-driven injection.
    ``crash()`` (also available as the ``crash`` fault kind) kills the
    proxy for good — live connections die and new connects are refused,
    exactly like a worker process crash.
    """

    def __init__(self, upstream: str, plan: FaultPlan, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream_addr = parse_host(upstream)
        self.plan = plan
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._socks: list[socket.socket] = []  # guarded by: _lock
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._accept_loop,
                                        name=f"chaos-proxy-{self.port}",
                                        daemon=True)
        self._thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._track(conn)
            session = _Session(self, conn)
            threading.Thread(target=session.run, daemon=True,
                             name="chaos-session").start()
        try:
            self._listener.close()
        except OSError:
            pass

    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._socks.append(sock)

    def crash(self) -> None:
        """Die like a crashed worker: refuse new connects, kill live ones."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            socks, self._socks = self._socks, []
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    close = crash  # cleanup is the same teardown, minus the drama

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "crashed" if self.stopped else "live"
        return (f"ChaosProxy({self.address} -> "
                f"{self.upstream_addr[0]}:{self.upstream_addr[1]}, {state})")
