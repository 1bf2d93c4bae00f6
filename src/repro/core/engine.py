"""Batched, optionally parallel problem evaluation with result caching.

Every optimizer in this package funnels its simulator queries through an
:class:`EvalEngine`.  The engine owns two orthogonal concerns:

* **dispatch** — how a batch of designs is turned into performance rows.
  Three backends are provided, one per kind of work: ``serial``
  (in-process loop, the default), ``process`` (one warm process pool that
  serves every problem; true CPU parallelism for the pure-python SPICE
  engine), and ``remote`` (a private, single-tenant
  :class:`~repro.core.fleet.FleetCoordinator` pinned to worker server
  processes on one or many hosts, speaking the length-prefixed JSON socket
  protocol of :mod:`repro.core.service`).
* **memoization** — a content-hashed LRU cache keyed on the *canonical*
  design vector bytes (``DesignSpace.canonical``: rounded, signed zeros
  normalized), so re-querying an already-simulated sizing (duplicates from
  a collapsed elite region, integer rounding, or repeated trials on the same
  engine) never pays for a second simulation.  Under the ``remote`` backend
  this cache is the service's shared tier: the coordinator de-duplicates and
  memoizes before any chunk leaves the process, so a repeated design is
  simulated exactly once across all shards.  With ``cache_dir=`` the LRU
  spills to a persistent append-only store
  (:class:`~repro.core.diskcache.DiskCache`) shared between processes, so a
  repeated *sweep* answers duplicate designs with zero simulations even
  across runs.

The engine also snapshots the simulator's hot-path counters
(:mod:`repro.spice.profile`) around every dispatch, so
:meth:`EvalEngine.hotpath_report` can break simulation time into
assemble / solve / AC-solve / overhead phases — the numbers
``benchmarks/bench_spice_hotpath.py`` tracks across PRs.  ``process``
workers and ``remote`` shards measure the counters where the simulation
actually ran and ship the per-chunk deltas back, so the report is
backend-independent.

All backends return rows in input order, so an optimizer's history is
bit-identical no matter which backend ran the batch — the determinism and
regression tests in ``tests/core/test_eval_engine.py`` and
``tests/core/test_service.py`` pin this contract.

Two evaluation entry points share one resolve step and one run body:
:meth:`EvalEngine.submit` resolves cache hits, in-batch duplicates and
in-flight twins synchronously, ships the misses to a background dispatch
thread and returns an :class:`EvalHandle`; :meth:`EvalEngine.gather` blocks
on the handle.  :meth:`EvalEngine.evaluate_batch` is the blocking form: it
runs the same body on the caller's thread, then gathers.  Overlapping
batches de-duplicate against each other through an in-flight registry (a
design pending in one batch is never re-simulated by a later batch), which
is what lets ``Study(pipeline_depth=d)`` keep ``d`` batches in flight
without wasting simulations.

Problems are identified by a *content fingerprint* (a hash of their pickle)
rather than object identity: two fresh-but-identical instances — the
``problem_factory()``-per-trial pattern — share cache entries.  The engine
holds only weak references to live problems, so a long-lived engine never
keeps dropped problems alive.

The process pool is not bound to a problem.  Each chunk task carries the
problem's fingerprint and the pickle it was computed from, and every worker
keeps an LRU table of unpickled problems by fingerprint (bounded by
:data:`MAX_PROBLEMS`, like a service worker's ``put_problem`` table), so
concurrent dispatches for different problems — the corner variants of a
PVT fan-out, successive trials, several studies on one engine — share one
warm pool.  The process backend therefore needs a picklable problem, as
the remote backend does; an unpicklable one raises ``TypeError`` at
dispatch.  All bundled problems (synthetic suite and circuit sizing
problems) are plain-data objects and pickle cleanly.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import (CancelledError, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from itertools import count, repeat
from time import perf_counter

import numpy as np

from .blas import openblas_threading, set_blas_threads

__all__ = ["EvalEngine", "EvalHandle", "default_workers"]

#: hot-path phases reported by :meth:`EvalEngine.hotpath_report`
_PHASES = ("assemble_s", "solve_s", "ac_build_s", "ac_solve_s")

#: env var naming default ``host:port`` shards for ``backend="remote"``
HOSTS_ENV = "REPRO_SERVICE_HOSTS"

#: env var naming a default on-disk cache directory (``cache_dir=``)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: env var setting a default per-design remote eval deadline in seconds
#: (``chunk_timeout=``): a chunk of n designs must be answered within
#: chunk_timeout * n seconds or its host counts as hung.
CHUNK_TIMEOUT_ENV = "REPRO_CHUNK_TIMEOUT"


def _spice_counters():
    """The simulator's process-global counters, imported on first use so
    that importing the engine does not load the simulator."""
    from repro.spice import profile
    return profile

BACKENDS = ("serial", "process", "remote")

#: problems a pool worker keeps unpickled, least recently used evicted first
#: (a service worker's ``put_problem`` table has the same bound)
MAX_PROBLEMS = 32

# A pool worker's unpickled problems, keyed by fingerprint token.
_WORKER_PROBLEMS: OrderedDict[bytes, object] = OrderedDict()


def _init_worker() -> None:
    set_blas_threads(1)


def _eval_chunk(token: bytes, blob: bytes,
                X: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
    """Process-pool task: evaluate a chunk of designs against the problem
    that ``blob`` pickles (unpickled once per worker, then looked up by
    ``token``).

    Returns the rows *and* the worker-side hot-path counter deltas for the
    chunk, so the parent engine's :meth:`EvalEngine.hotpath_report` reflects
    work done inside the pool.
    """
    problem = _WORKER_PROBLEMS.get(token)
    if problem is None:
        problem = _WORKER_PROBLEMS[token] = pickle.loads(blob)
        while len(_WORKER_PROBLEMS) > MAX_PROBLEMS:
            _WORKER_PROBLEMS.popitem(last=False)
    else:
        _WORKER_PROBLEMS.move_to_end(token)
    profile = _spice_counters()
    before = profile.snapshot()
    rows = problem.evaluate_batch(X)
    return rows, {name: value for name, value in profile.delta(before).items()
                  if value}


def default_workers() -> int:
    """Worker count matched to the visible CPUs (affinity-aware on Linux)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class EvalHandle:
    """Ticket for a batch submitted via :meth:`EvalEngine.submit`.

    Redeem with :meth:`EvalEngine.gather` (on the engine that issued it) to
    block for the rows.  Handles are single-use value objects; they carry
    the per-design resolution — cached rows, and futures for designs that
    went (or were already) in flight — so ``gather`` never touches engine
    state beyond reading future results.
    """

    __slots__ = ("keys", "resolved", "waits")

    def __init__(self, keys, resolved, waits):
        self.keys = keys          # cache key per input row, in input order
        self.resolved = resolved  # key -> row answered at submit time
        self.waits = waits        # key -> Future[dict[key, row]]

    def done(self) -> bool:
        """True when every pending design's dispatch has completed."""
        return all(future.done() for future in self.waits.values())


class EvalEngine:
    """Dispatches batches of simulator evaluations, with caching.

    Parameters
    ----------
    backend:
        ``"serial"`` | ``"process"`` | ``"remote"``.
    workers:
        Pool size for the parallel backends (default: visible CPU count).
    cache_size:
        Maximum number of memoized evaluations; ``0`` disables the cache
        (the disk tier included).
    cache_dir:
        Optional directory for the *persistent* cache tier (see
        :class:`~repro.core.diskcache.DiskCache`).  An in-memory miss falls
        through to disk before any simulation is dispatched, and every
        fresh row is appended, so repeated designs are answered with zero
        simulations across runs *and processes* sharing the directory.
        ``None`` (default) reads the ``REPRO_CACHE_DIR`` environment
        variable; pass ``""``/``False`` to force the disk tier off even
        when the variable is set.
    hosts:
        ``["host:port", ...]`` worker servers for the ``remote`` backend
        (default: the ``REPRO_SERVICE_HOSTS`` environment variable,
        comma-separated).  Start workers with
        ``python -m repro.core.service --port PORT``.
    dispatcher:
        A pre-built remote-style dispatcher — any object with
        ``dispatch(problem, token, X) -> (rows, counters, n_sims)`` and
        ``close()`` — used *instead of* the private fleet built from
        ``hosts``.  Implies ``backend="remote"``.  This is how
        :meth:`~repro.core.fleet.FleetCoordinator.engine` hands each tenant
        a standard engine whose misses flow through the shared fleet
        scheduler; closing the engine closes (detaches) only the injected
        dispatcher, never the fleet behind it.
    chunk_timeout:
        Per-design deadline (seconds) for the ``remote`` backend: a chunk
        of ``n`` designs must be answered within ``chunk_timeout * n``
        seconds or the worker is treated as hung — a retryable transport
        failure (the host is quarantined, the chunk re-queued), surfacing
        as :class:`~repro.core.service.ServiceError` (never an indefinite
        hang) once every host has failed.  ``None`` (default) reads the
        ``REPRO_CHUNK_TIMEOUT`` environment variable; unset means no
        deadline (simulations may legitimately take minutes).
    degraded:
        ``"local"`` opts the ``remote`` backend into graceful degradation:
        once every host has failed, missing rows are evaluated in-process
        (logged and counted) instead of raising.  Default ``None`` keeps
        the strict fail-fast behaviour.

    The engine is reusable across batches and across optimizers sharing one
    problem; :meth:`close` (or use as a context manager) releases the pool
    and any service connections.
    """

    def __init__(self, backend: str = "serial", *, workers: int | None = None,
                 cache_size: int = 100_000, cache_dir=None, hosts=None,
                 dispatcher=None, chunk_timeout: float | None = None,
                 degraded: str | None = None):
        if dispatcher is not None:
            backend = "remote"
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if degraded not in (None, "local"):
            raise ValueError(f"degraded must be None or 'local', got {degraded!r}")
        if hosts is None:
            hosts = [h.strip() for h in os.environ.get(HOSTS_ENV, "").split(",")
                     if h.strip()]
        self.hosts = list(hosts)
        if backend == "remote" and not self.hosts and dispatcher is None:
            raise ValueError(
                f"remote backend needs hosts=['host:port', ...] or {HOSTS_ENV}")
        if chunk_timeout is None:
            env = os.environ.get(CHUNK_TIMEOUT_ENV, "").strip()
            chunk_timeout = float(env) if env else None
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be > 0 seconds")
        self.chunk_timeout = chunk_timeout
        self.degraded = degraded
        self.backend = backend
        self.workers = int(workers) if workers is not None else default_workers()
        self.cache_size = int(cache_size)
        self._cache: OrderedDict[bytes, np.ndarray] = OrderedDict()  # guarded by: _state_lock
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV) or None
        self.cache_dir = os.fspath(cache_dir) if cache_dir else None
        self._disk = None
        if self.cache_dir and self.cache_size:
            from .diskcache import DiskCache
            self._disk = DiskCache(self.cache_dir)
        # Problem identity: content-fingerprint tokens held behind weakrefs.
        # ``_problem_tokens`` maps a *live* instance's id() to its token and
        # ``_problem_blobs`` to the pickle the token hashes (what process
        # pool tasks ship); the paired weakref callback removes both when
        # the instance dies, so a recycled id can never alias a stale token
        # and the engine never pins dropped problems in memory.  Unpicklable
        # problems fall back to a unique anonymous token and no blob (and,
        # if also un-weakref-able, a strong pin).
        self._problem_tokens: dict[int, bytes] = {}   # guarded by: _state_lock
        self._problem_blobs: dict[int, bytes] = {}    # guarded by: _state_lock
        self._problem_wrefs: dict[int, weakref.ref] = {}  # guarded by: _state_lock
        self._problem_pins: dict[int, object] = {}    # guarded by: _state_lock
        self._anon_tokens = count()
        self._executor = None          # process pool; guarded by: _state_lock
        self._remote = dispatcher      # guarded by: _state_lock
        # Non-blocking submit/gather machinery: a small thread pool runs the
        # dispatches, ``_inflight`` maps each pending design's cache key to
        # the future that will produce its row (so overlapping submits never
        # simulate the same design twice), and ``_state_lock`` guards the
        # cache, counters and problem-token tables against those threads.
        self._submit_executor: ThreadPoolExecutor | None = None  # guarded by: _state_lock
        self._inflight: dict[bytes, object] = {}      # guarded by: _state_lock
        self._state_lock = threading.RLock()
        self._closed = False                          # guarded by: _state_lock
        self.n_sim_calls = 0    # dispatched to the simulator; guarded by: _state_lock
        self.n_cache_hits = 0   # answered from the cache; guarded by: _state_lock
        self.n_disk_hits = 0    # ...from the persistent tier; guarded by: _state_lock
        self.n_dedup = 0        # answered by an in-batch/in-flight twin; guarded by: _state_lock
        self.n_pool_builds = 0  # pools built over the lifetime; guarded by: _state_lock
        self.worker_sim_calls = 0  # sims reported by remote shards; guarded by: _state_lock
        # Per-phase hot-path breakdown, accumulated from the simulator's
        # counters around each dispatch; process/remote backends fold in the
        # per-chunk deltas their workers report back.
        self.dispatch_seconds = 0.0                   # guarded by: _state_lock
        self.phase_counters: dict[str, float] = {}    # guarded by: _state_lock
        if backend == "remote" and dispatcher is None:
            # A private, single-tenant fleet pinned to ``hosts``: it starts
            # connecting now and closes with the engine.
            from .fleet import private_fleet
            self._remote = private_fleet(self.hosts, chunk_timeout=chunk_timeout,
                                         degraded=degraded)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Shut down any worker pool / dispatcher connections (idempotent).

        Safe to call with a :meth:`submit` batch still in flight: the
        dispatchers are torn down *first*, so a dispatch thread blocked on
        a remote socket errors out immediately (its :meth:`gather` raises)
        instead of pinning the submit pool's ``shutdown(wait=True)`` —
        previously that ordering could deadlock ``close()`` and leave
        ``gather()`` hanging forever on a dead service.  Batches that were
        queued but not yet started are cancelled, and their ``gather``
        raises too.  A closed engine rejects further :meth:`submit` calls.
        """
        # Swap every handle out under the lock (concurrent close()/dispatch
        # calls then agree on one owner per handle), but run the blocking
        # teardown *outside* it: submit-pool threads take _state_lock
        # themselves, so holding it across shutdown(wait=True) would
        # deadlock.
        with self._state_lock:
            self._closed = True
            remote, self._remote = self._remote, None
            submit, self._submit_executor = self._submit_executor, None
        if remote is not None:
            remote.close()
        if submit is not None:
            submit.shutdown(wait=True, cancel_futures=True)
            with self._state_lock:
                self._inflight.clear()
        # The process pool goes last, after the dispatch threads that use
        # it; it is joined with the lock released, like the submit pool, so
        # no concurrent counter fold stalls behind the join (RP07).
        with self._state_lock:
            pool, self._executor = self._executor, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._disk is not None:
            self._disk.close()

    def clear_cache(self) -> None:
        """Drop every in-memory cache entry (thread-safe).

        Taken under ``_state_lock`` so it cannot race the submit-pool
        threads that read/write the cache mid-dispatch.  Only the RAM tier
        is dropped: the persistent disk tier (``cache_dir``) keeps its
        entries *and* its index — this method means "free memory", not
        "forget results"; a later miss may still be answered from disk.
        To actually discard persisted results, delete the directory (or
        rewrite it with ``python -m repro.core.diskcache --compact``).
        """
        with self._state_lock:
            self._cache.clear()

    def __enter__(self) -> "EvalEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- evaluation --------------------------------------------------------
    def evaluate_batch(self, problem, X: np.ndarray) -> np.ndarray:
        """Raw performance rows for a batch of designs, in input order.

        The blocking form of :meth:`submit` + :meth:`gather`: the same
        resolve step, but the misses are dispatched on the caller's thread.
        Designs are canonicalized through ``problem.space.canonical``
        (rounded, signed zeros normalized) before hashing, so a rounded and
        an unrounded view of one integer design share a cache/dedup entry.

        Scenario wrappers (:mod:`repro.scenarios`) are recognized by their
        ``scenario_submit`` hook and fan each design out to per-variant
        engine batches instead of being dispatched (and fingerprinted)
        directly — duck-typed so this module never imports the subsystem.
        """
        fan = getattr(problem, "scenario_submit", None)
        if fan is not None:
            return self.gather(fan(self, X))
        handle, run = self._resolve(problem, X, inline=True)
        if run is not None:
            future, batch = run
            try:
                future.set_result(self._run(*batch))
            except BaseException as exc:
                future.set_exception(exc)
                raise
        return self.gather(handle)

    def submit(self, problem, X: np.ndarray) -> EvalHandle:
        """Start evaluating a batch without blocking; returns an :class:`EvalHandle`.

        The resolve step (cache hits, duplicates, in-flight twins) runs
        synchronously, so a fully-cached batch costs no thread hop; only
        the designs that actually need the simulator are dispatched on a
        background thread.  A design already in flight from an *earlier*
        outstanding batch is shared, not re-simulated — the handle waits on
        the same future.  This is the primitive under
        :class:`repro.core.Study`'s pipelined mode, which overlaps the
        optimizer's next proposal batch with these in-flight evaluations.

        Under overlapping submits the per-phase hot-path counters may
        double-count concurrent windows (the process-global simulator
        counters cannot be attributed per dispatch); the cache/dedup/call
        counters stay exact.

        Scenario wrappers submit through their own ``scenario_submit`` hook,
        which returns a duck-typed handle driving the per-variant fan-out;
        :meth:`gather` routes it back to the wrapper.
        """
        fan = getattr(problem, "scenario_submit", None)
        if fan is not None:
            return fan(self, X)
        return self._resolve(problem, X, inline=False)[0]

    def gather(self, handle) -> np.ndarray:
        """Rows for a submitted batch, in input order (blocks until done).

        Raises whatever the dispatch raised; a batch cancelled by
        :meth:`close` before it started raises a ``RuntimeError`` instead
        of blocking forever on a ticket nobody will redeem.

        Duck-typed scenario handles (anything that is not an
        :class:`EvalHandle`) gather themselves against this engine — that
        is where the scenario fan-out's second wave runs.
        """
        if not isinstance(handle, EvalHandle):
            return handle.gather(self)
        rows = dict(handle.resolved)
        for key, future in handle.waits.items():
            try:
                rows[key] = future.result()[key]
            except CancelledError:
                raise RuntimeError(
                    "EvalEngine was closed while the submitted batch was "
                    "still pending") from None
        return np.vstack([rows[key] for key in handle.keys])

    def _resolve(self, problem, X: np.ndarray, inline: bool):
        """Resolve step of both entry points: answer each design from the
        cache, an earlier twin in the batch, or a batch already in flight,
        and register the misses in ``_inflight`` under one future (a closed
        engine refuses them).  Returns the handle plus, for an ``inline``
        batch, ``(future, run args)`` for the caller to run; otherwise the
        run is queued on the submit pool."""
        X = problem.space.canonical(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        with self._state_lock:
            token, blob = self._problem_identity_locked(problem)
        keys = [self._key(token, x) for x in X]
        resolved: dict[bytes, np.ndarray] = {}
        waits: dict[bytes, Future] = {}
        pending: dict[bytes, np.ndarray] = {}  # misses, in first-seen order
        inline_run = None
        with self._state_lock:
            for key, x in zip(keys, X):
                if key in resolved or key in waits or key in pending:
                    self.n_dedup += 1
                    continue
                cached = self._cache_get(key)
                if cached is not None:
                    resolved[key] = cached
                    self.n_cache_hits += 1
                    continue
                inflight = self._inflight.get(key)
                if inflight is not None:
                    waits[key] = inflight
                    self.n_dedup += 1
                    continue
                pending[key] = x
            if pending:
                if self._closed:
                    raise RuntimeError("EvalEngine is closed")
                batch = (problem, np.asarray(list(pending.values())), token,
                         blob, tuple(pending))
                if inline:
                    future: Future = Future()
                    future.set_running_or_notify_cancel()
                    inline_run = (future, batch)
                else:
                    future = self._submit_pool().submit(self._run, *batch)
                for key in pending:
                    self._inflight[key] = future
                    waits[key] = future
        return EvalHandle(keys, resolved, waits), inline_run

    def _run(self, problem, X: np.ndarray, token: bytes, blob: bytes | None,
             keys: tuple[bytes, ...]) -> dict[bytes, np.ndarray]:
        """Run body of both entry points: dispatch a resolved batch's misses,
        fold the workers' and this process's simulator counters into
        ``phase_counters``, fill the cache, and retire the keys from
        ``_inflight`` (on error too, so a failed design can be retried)."""
        profile = _spice_counters()
        before = profile.snapshot()
        t0 = perf_counter()
        try:
            fresh, worker_counters = self._dispatch(problem, X, token, blob)
        except BaseException:
            with self._state_lock:
                for key in keys:
                    self._inflight.pop(key, None)
            raise
        elapsed = perf_counter() - t0
        window = profile.delta(before)
        with self._state_lock:
            self.dispatch_seconds += elapsed
            for counters in (*worker_counters, window):
                for name, value in counters.items():
                    self.phase_counters[name] = self.phase_counters.get(name, 0.0) + value
            self.n_sim_calls += len(X)
            durable = self._durable(token)
            for key, row in zip(keys, fresh):
                self._cache_put(key, row, durable)
                self._inflight.pop(key, None)
        return dict(zip(keys, fresh))

    def _submit_pool(self) -> ThreadPoolExecutor:  # holds: _state_lock
        if self._submit_executor is None:
            self._submit_executor = ThreadPoolExecutor(
                max_workers=max(4, self.workers),
                thread_name_prefix="eval-submit")
        return self._submit_executor

    # -- problem identity --------------------------------------------------
    def _problem_token(self, problem) -> bytes:
        """Stable token for a problem: content fingerprint, weakly held.

        The fingerprint is computed once per live instance (first sight), so
        cache keys stay stable even for problems that mutate internal state
        while being evaluated.
        """
        with self._state_lock:
            return self._problem_identity_locked(problem)[0]

    def _problem_identity_locked(self, problem):  # holds: _state_lock
        """``(token, pickle)`` of a problem, memoized per live instance; the
        pickle is ``None`` for an unpicklable problem."""
        # id() only keys the per-live-instance memo; the cache key that
        # reaches results is the content fingerprint below, which is stable
        # across runs.  # lint: disable=RP01
        pid = id(problem)
        token = self._problem_tokens.get(pid)
        if token is not None:
            return token, self._problem_blobs.get(pid)
        blob = self._pickled(problem)
        if blob is not None:
            token = hashlib.blake2b(blob, digest_size=16).digest()
            self._problem_blobs[pid] = blob
        else:
            # Unpicklable problem: no content identity.  The random suffix
            # keeps two engines' (or processes') anonymous tokens from ever
            # colliding; anonymous keys are additionally kept out of the
            # persistent disk tier (see ``_cache_put``) — a counter-based
            # token restarting at 0 per process used to let two *different*
            # unpicklable problems answer each other's designs from disk.
            token = b"anon:%d:" % next(self._anon_tokens) + os.urandom(8)
        self._problem_tokens[pid] = token
        tokens, blobs, wrefs, pins = (self._problem_tokens, self._problem_blobs,
                                      self._problem_wrefs, self._problem_pins)

        def _forget(_ref, pid=pid) -> None:
            tokens.pop(pid, None)
            blobs.pop(pid, None)
            wrefs.pop(pid, None)

        try:
            self._problem_wrefs[pid] = weakref.ref(problem, _forget)
        except TypeError:
            # Not weakref-able (e.g. __slots__ without __weakref__): pin it
            # so the id stays unique for the engine's lifetime.
            pins[pid] = problem
        return token, blob

    @staticmethod
    def _pickled(problem) -> bytes | None:
        try:
            return pickle.dumps(problem, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None

    @classmethod
    def _fingerprint(cls, problem) -> bytes | None:
        blob = cls._pickled(problem)
        return None if blob is None else hashlib.blake2b(blob, digest_size=16).digest()

    @staticmethod
    def _durable(problem_token: bytes) -> bool:
        """Only content-fingerprinted problems may touch the disk tier: an
        anonymous token has no cross-process identity, so persisting its
        keys could only ever produce collisions, never legitimate hits."""
        return not problem_token.startswith(b"anon:")

    @staticmethod
    def _key(problem_token: bytes, x: np.ndarray) -> bytes:
        digest = hashlib.blake2b(np.ascontiguousarray(x).tobytes(),
                                 digest_size=16)
        digest.update(problem_token)
        return digest.digest()

    # -- cache -------------------------------------------------------------
    def _cache_get(self, key: bytes) -> np.ndarray | None:  # holds: _state_lock
        if self.cache_size == 0:
            return None
        row = self._cache.get(key)
        if row is not None:
            self._cache.move_to_end(key)
            return row
        if self._disk is not None:
            row = self._disk.get(key)
            if row is not None:
                # Promote without re-appending: the entry is already durable.
                self.n_disk_hits += 1
                self._cache[key] = row
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                return row
        return None

    def _cache_put(self, key: bytes, row: np.ndarray,
                   durable: bool = True) -> None:  # holds: _state_lock
        if self.cache_size == 0:
            return
        self._cache[key] = row
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        # Straggler dispatch threads may complete after close(); the closed
        # check (and DiskCache's own put-after-close no-op) keeps them from
        # hitting the closed writer handle.
        if durable and self._disk is not None and not self._closed:
            self._disk.put(key, row)

    def seed_cache(self, problem, X: np.ndarray, F: np.ndarray) -> int:
        """Pre-load known evaluations (e.g. a donor run's archive).

        Each ``(design, row)`` pair is canonicalized, keyed exactly like a
        fresh evaluation, and stored in the memory cache (and the disk tier
        when configured) — so a warm-started optimizer that re-proposes a
        donor design is answered without a simulation.  Existing entries
        are never overwritten.  Returns the number of entries added.
        """
        X = problem.space.canonical(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        F = np.atleast_2d(np.asarray(F, dtype=np.float64))
        if len(X) != len(F):
            raise ValueError(f"seed_cache got {len(X)} designs but {len(F)} rows")
        if self.cache_size == 0:
            return 0
        added = 0
        with self._state_lock:
            token = self._problem_identity_locked(problem)[0]
            durable = self._durable(token)
            for x, row in zip(X, F):
                key = self._key(token, x)
                if key in self._cache or (self._disk is not None
                                          and key in self._disk):
                    continue
                self._cache_put(key, row.copy(), durable)
                added += 1
        return added

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, problem, X: np.ndarray, token: bytes, blob: bytes | None
                  ) -> tuple[np.ndarray, list[dict[str, float]]]:
        """Rows for ``X``, plus the simulator counter deltas measured where
        the simulation ran outside this process (one dict per pool chunk
        or remote reply; empty when it all ran here).  ``blob`` is the
        problem's pickle, which process pool tasks carry."""
        if self.backend == "remote":
            rows, counters, n_sims = self._remote_dispatcher().dispatch(
                problem, token, X)
            with self._state_lock:
                self.worker_sim_calls += n_sims
            return rows, [counters]
        if self.backend == "process" and blob is None:
            raise TypeError(
                f"process backend requires a picklable problem "
                f"({type(problem).__name__} failed to pickle)")
        if self.backend == "serial" or len(X) == 1:
            return problem.evaluate_batch(X), []
        import multiprocessing as mp
        if mp.current_process().daemon:
            # Daemonic contexts (e.g. fork-pool trial workers) cannot spawn
            # pool children; degrade to the serial loop, same as the trial
            # runner's own fallback.  Results are unchanged either way.
            return problem.evaluate_batch(X), []
        chunks = [c for c in np.array_split(X, min(len(X), self.workers)) if len(c)]
        results = list(self._process_executor().map(
            _eval_chunk, repeat(token), repeat(blob), chunks))
        return (np.vstack([rows for rows, _ in results]),
                [deltas for _, deltas in results])

    def _process_executor(self) -> ProcessPoolExecutor:
        # Locked so overlapping submit() dispatch threads agree on one pool;
        # a closed engine builds none (close() would never join it).
        with self._state_lock:
            if self._closed:
                raise RuntimeError("EvalEngine is closed")
            if self._executor is None:
                import multiprocessing as mp
                kwargs = {}
                if "fork" in mp.get_all_start_methods():
                    kwargs["mp_context"] = mp.get_context("fork")
                    # Forked workers inherit the resolved functions, so
                    # _init_worker does not scan for OpenBLAS.
                    openblas_threading()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_init_worker, **kwargs)
                self.n_pool_builds += 1
            return self._executor

    def _remote_dispatcher(self):
        with self._state_lock:
            if self._remote is None:
                raise RuntimeError("EvalEngine is closed")
            return self._remote

    # -- hot-path reporting ------------------------------------------------
    def hotpath_report(self) -> dict[str, float]:
        """Assemble/solve/overhead breakdown of the simulator time dispatched
        through this engine.

        ``overhead_s`` is dispatch wall-clock not attributed to a counted
        phase (testbench logic, waveform post-processing, engine/pool/wire
        overhead).  The breakdown is backend-independent: ``process`` workers
        and ``remote`` shards measure the counters where the simulation ran
        and ship the per-chunk deltas back with each result.
        """
        with self._state_lock:
            report = {name: self.phase_counters.get(name, 0.0)
                      for name in _PHASES}
            for extra in ("newton_iterations", "newton_solves", "ac_solves"):
                report[extra] = self.phase_counters.get(extra, 0.0)
            report["dispatch_s"] = self.dispatch_seconds
            report["overhead_s"] = max(
                0.0,
                self.dispatch_seconds - sum(report[name] for name in _PHASES))
            report["n_sim_calls"] = float(self.n_sim_calls)
        return report

    def counters_snapshot(self) -> dict:
        """Point-in-time consistent copy of the cache/dispatch counters.

        The one sanctioned way for *other* threads and objects (worker
        stats, fleet telemetry, study summaries) to read the counters:
        every field comes from the same instant under ``_state_lock``,
        instead of a torn unlocked read per attribute.
        """
        with self._state_lock:
            return {"n_sim_calls": self.n_sim_calls,
                    "n_cache_hits": self.n_cache_hits,
                    "n_disk_hits": self.n_disk_hits,
                    "n_dedup": self.n_dedup,
                    "n_pool_builds": self.n_pool_builds,
                    "worker_sim_calls": self.worker_sim_calls,
                    "cache_entries": len(self._cache),
                    "dispatch_seconds": self.dispatch_seconds}

    def __repr__(self) -> str:
        hosts = f", hosts={self.hosts!r}" if self.backend == "remote" else ""
        disk = f", cache_dir={self.cache_dir!r}" if self.cache_dir else ""
        with self._state_lock:
            entries = len(self._cache)
        return (f"EvalEngine(backend={self.backend!r}, workers={self.workers}, "
                f"cache={entries}/{self.cache_size}{hosts}{disk})")
