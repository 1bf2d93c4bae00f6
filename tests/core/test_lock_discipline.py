"""Regression tests for the RP02/RP07 lock-discipline fixes.

These pin the concrete behaviours the contract linter forced: snapshot
reads happen under the owning lock, cross-object counter reads go through
``EvalEngine.counters_snapshot()``, fleet ``stats()`` never nests the
coordinator condition inside an engine's state lock (or vice versa), and
retired worker pools are joined with ``_state_lock`` released (RP07).
"""

import threading

import numpy as np

from repro.core import EvalEngine
from repro.core.diskcache import DiskCache
from repro.core.fleet import FleetCoordinator
from repro.core.study import engine_counter_snapshot
from repro.problems import Sphere


class RecordingLock:
    """Wraps a real lock, counting context-manager acquisitions."""

    def __init__(self, inner):
        self._inner = inner
        self.enters = 0

    def __enter__(self):
        self.enters += 1
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self.enters += 1
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        return self._inner.release()


class OwnershipLock(RecordingLock):
    """RecordingLock that also tracks whether the lock is currently held
    (single-threaded tests only)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.owned = False

    def __enter__(self):
        result = super().__enter__()
        self.owned = True
        return result

    def __exit__(self, *exc):
        self.owned = False
        return super().__exit__(*exc)


class FakeExecutor:
    """Stand-in worker pool recording lock ownership at shutdown time."""

    def __init__(self, lock):
        self._lock = lock
        self.shutdowns: list[tuple[bool, bool]] = []

    def shutdown(self, wait=False, cancel_futures=False):
        self.shutdowns.append((wait, self._lock.owned))


def test_close_joins_retired_pool_outside_state_lock():
    # RP07 contract: close() swaps the pool out under _state_lock but runs
    # the blocking shutdown(wait=True) only after releasing it — a dispatch
    # thread taking _state_lock must never stall behind the pool join.
    engine = EvalEngine("serial")
    lock = OwnershipLock(engine._state_lock)
    engine._state_lock = lock
    pool = FakeExecutor(lock)
    engine._executor = pool
    engine.close()
    assert pool.shutdowns == [(True, False)]
    assert engine._executor is None


def test_counters_snapshot_is_locked_and_consistent():
    problem = Sphere(3)
    engine = EvalEngine("serial")
    X = problem.space.sample(np.random.default_rng(0), 6)
    engine.evaluate_batch(problem, X)

    rec = RecordingLock(engine._state_lock)
    engine._state_lock = rec
    before = rec.enters
    snap = engine.counters_snapshot()
    assert rec.enters == before + 1

    assert snap["n_sim_calls"] == engine.n_sim_calls > 0
    assert {"n_sim_calls", "n_cache_hits", "n_disk_hits", "n_dedup",
            "n_pool_builds", "worker_sim_calls", "cache_entries",
            "dispatch_seconds"} <= set(snap)
    assert snap["cache_entries"] == len(engine._cache)
    engine.close()


def test_hotpath_report_and_repr_acquire_state_lock():
    engine = EvalEngine("serial")
    rec = RecordingLock(engine._state_lock)
    engine._state_lock = rec

    before = rec.enters
    engine.hotpath_report()
    assert rec.enters > before

    before = rec.enters
    repr(engine)
    assert rec.enters > before
    engine.close()


def test_diskcache_repr_acquires_lock(tmp_path):
    cache = DiskCache(tmp_path)
    rec = RecordingLock(cache._lock)
    cache._lock = rec
    before = rec.enters
    text = repr(cache)
    assert rec.enters == before + 1
    assert "DiskCache" in text
    cache.close()


def test_fleet_stats_reads_engine_counters_outside_cond():
    # Lock-ordering contract: stats() collects engine refs under _cond but
    # calls counters_snapshot() (which takes the engine's _state_lock) only
    # after _cond is released, so the two locks never nest.
    with FleetCoordinator() as fleet:
        engine = fleet.engine("tenant-a")
        try:
            cond_owned = []
            orig = engine.counters_snapshot

            def spy():
                cond_owned.append(fleet._cond._is_owned())
                return orig()

            engine.counters_snapshot = spy
            stats = fleet.stats()
            assert cond_owned == [False]
            entry = stats["tenants"]["tenant-a"]
            assert entry["cache_hits"] == 0
            assert entry["engine_sims"] == 0
            assert entry["cache_hit_rate"] == 0.0
        finally:
            engine.close()


def test_study_snapshot_routes_through_counters_snapshot():
    engine = EvalEngine("serial")
    calls = []
    orig = engine.counters_snapshot

    def spy():
        calls.append(True)
        return orig()

    engine.counters_snapshot = spy
    snap = engine_counter_snapshot(engine)
    assert calls == [True]
    assert set(snap) == {"n_cache_hits", "n_disk_hits", "n_sim_calls",
                         "n_dedup", "n_pool_builds", "worker_sim_calls"}
    engine.close()


def test_snapshot_safe_under_concurrent_evaluation():
    # Readers hammering the sanctioned snapshot API while a writer
    # evaluates must never see exceptions or non-monotonic sim counts.
    problem = Sphere(2)
    engine = EvalEngine("serial", cache_size=0)
    stop = threading.Event()
    per_reader: list[list[int]] = [[] for _ in range(3)]
    errors: list[BaseException] = []

    def reader(seen):
        try:
            while not stop.is_set():
                seen.append(engine.counters_snapshot()["n_sim_calls"])
                repr(engine)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(seen,))
               for seen in per_reader]
    for t in threads:
        t.start()
    rng = np.random.default_rng(1)
    for _ in range(20):
        engine.evaluate_batch(problem, problem.space.sample(rng, 4))
    stop.set()
    for t in threads:
        t.join(timeout=5)
    engine.close()

    assert not errors
    for seen in per_reader:  # each reader observes a monotonic count
        assert seen == sorted(seen)
