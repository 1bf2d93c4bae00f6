"""EvalEngine: backend equivalence, caching, and optimizer wiring.

The load-bearing contract: an optimizer's history is *bit-identical* no
matter which engine backend dispatched its simulator batches, and a cache
hit never re-invokes the simulator.
"""

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.core import DNNOpt, EvalEngine, default_workers
from repro.problems import ConstrainedSphere, Sphere

BACKENDS = ["serial", "process", "remote"]


@pytest.fixture()
def make_engine(request):
    """``make_engine(backend, workers)``; ``remote`` runs on two local
    worker servers."""
    def make(backend, workers):
        if backend == "remote":
            servers = request.getfixturevalue("two_local_servers")
            return EvalEngine("remote", hosts=[s.address for s in servers])
        return EvalEngine(backend, workers=workers)
    return make


class CountingSphere(Sphere):
    """Sphere that counts in-process simulator invocations."""

    def __init__(self, dim=3):
        super().__init__(dim)
        self.calls = 0

    def _evaluate(self, x):
        self.calls += 1
        return super()._evaluate(x)


def small_dnnopt(problem, budget, seed, engine=None, **kw):
    defaults = dict(n_init=8, n_elite=5, critic_epochs=5, actor_epochs=5,
                    critic_hidden=(16, 16), actor_hidden=(16, 16),
                    max_pseudo=500, engine=engine)
    defaults.update(kw)
    return DNNOpt(problem, budget, seed, **defaults)


# ----------------------------------------------------------------------
# Engine-level behaviour
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_matches_direct_evaluation(backend, make_engine):
    problem = Sphere(4)
    rng = np.random.default_rng(0)
    X = problem.space.sample(rng, 13)
    expected = problem.evaluate_batch(X)
    with make_engine(backend, 3) as engine:
        np.testing.assert_array_equal(engine.evaluate_batch(problem, X), expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_returned_in_input_order(backend, make_engine):
    problem = Sphere(2)
    X = np.array([[3.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    with make_engine(backend, 2) as engine:
        F = engine.evaluate_batch(problem, X)
    np.testing.assert_allclose(F[:, 0], (X ** 2).sum(axis=1))


def test_cache_hit_never_reinvokes_simulator():
    problem = CountingSphere(3)
    engine = EvalEngine("serial")
    rng = np.random.default_rng(1)
    X = problem.space.sample(rng, 7)
    F1 = engine.evaluate_batch(problem, X)
    assert problem.calls == 7
    F2 = engine.evaluate_batch(problem, X)  # same designs again
    assert problem.calls == 7  # zero new simulations
    assert engine.n_cache_hits == 7
    np.testing.assert_array_equal(F1, F2)


def test_in_batch_duplicates_simulated_once():
    problem = CountingSphere(2)
    engine = EvalEngine("serial")
    x = np.array([1.0, 2.0])
    F = engine.evaluate_batch(problem, np.vstack([x, x, x]))
    assert problem.calls == 1
    assert len(F) == 3
    np.testing.assert_array_equal(F[0], F[1])
    np.testing.assert_array_equal(F[0], F[2])


def test_cache_disabled_reinvokes():
    problem = CountingSphere(2)
    engine = EvalEngine("serial", cache_size=0)
    X = problem.space.sample(np.random.default_rng(2), 4)
    engine.evaluate_batch(problem, X)
    engine.evaluate_batch(problem, X)
    assert problem.calls == 8
    assert engine.n_cache_hits == 0


def test_cache_lru_eviction():
    problem = CountingSphere(1)
    engine = EvalEngine("serial", cache_size=2)
    a, b, c = np.array([[1.0]]), np.array([[2.0]]), np.array([[3.0]])
    engine.evaluate_batch(problem, a)
    engine.evaluate_batch(problem, b)
    engine.evaluate_batch(problem, c)  # evicts a
    engine.evaluate_batch(problem, a)
    assert problem.calls == 4


def test_cache_key_rounds_integer_dims():
    # 1.1 and 0.9 both round to the same integer design -> one simulation.
    from repro.problems import PressureVessel
    problem = PressureVessel()
    engine = EvalEngine("serial")
    base = np.array([5.0, 5.0, 50.0, 100.0])
    x1 = base.copy(); x1[0] = 5.1
    x2 = base.copy(); x2[0] = 4.9
    engine.evaluate_batch(problem, np.vstack([x1, x2]))
    assert engine.n_sim_calls == 1


def test_cache_disabled_still_dedups_within_batch():
    # cache_size=0 only disables *memoization across batches*; duplicate
    # rows inside one batch are still simulated once.
    problem = CountingSphere(2)
    engine = EvalEngine("serial", cache_size=0)
    x = np.array([1.0, 2.0])
    F = engine.evaluate_batch(problem, np.vstack([x, x, x, x]))
    assert problem.calls == 1
    assert len(F) == 4
    assert engine.n_cache_hits == 0
    engine.evaluate_batch(problem, x[None, :])  # next batch re-simulates
    assert problem.calls == 2


def test_cache_lru_hit_refreshes_recency_in_mixed_batches():
    # A mixed hit/miss batch must move the hit to most-recently-used, so the
    # *untouched* entry is the one evicted by the batch's fresh insert.
    problem = CountingSphere(1)
    engine = EvalEngine("serial", cache_size=2)
    a, b, c, = np.array([[1.0]]), np.array([[2.0]]), np.array([[3.0]])
    engine.evaluate_batch(problem, np.vstack([a, b]))   # cache {a, b}
    assert problem.calls == 2
    engine.evaluate_batch(problem, np.vstack([a, c]))   # a hit -> evict b
    assert problem.calls == 3
    engine.evaluate_batch(problem, a)                   # still cached
    assert problem.calls == 3
    engine.evaluate_batch(problem, b)                   # evicted -> re-simulated
    assert problem.calls == 4


# ----------------------------------------------------------------------
# Problem identity: weakref tokens, content fingerprints, one shared pool
# ----------------------------------------------------------------------
def test_dropped_problem_is_collectable():
    import gc
    import weakref
    engine = EvalEngine("serial")
    problem = CountingSphere(3)
    ref = weakref.ref(problem)
    engine.evaluate_batch(problem, problem.space.sample(np.random.default_rng(0), 4))
    assert engine._problem_tokens  # tracked while alive
    del problem
    gc.collect()
    assert ref() is None, "engine must not keep dropped problems alive"
    assert engine._problem_tokens == {}
    assert engine._problem_wrefs == {}


def test_problem_token_stable_for_live_instance():
    engine = EvalEngine("serial")
    problem = CountingSphere(2)
    token = engine._problem_token(problem)
    engine.evaluate_batch(problem, problem.space.sample(np.random.default_rng(0), 3))
    assert engine._problem_token(problem) == token  # calls=3 now: still stable


def test_cache_shared_across_identical_problem_instances():
    # The problem_factory()-per-trial pattern: a fresh but identical instance
    # hits the cache entries its predecessor populated.
    engine = EvalEngine("serial")
    X = Sphere(3).space.sample(np.random.default_rng(4), 5)
    p1 = CountingSphere(3)
    engine.evaluate_batch(p1, X)
    assert p1.calls == 5
    p2 = CountingSphere(3)
    engine.evaluate_batch(p2, X)
    assert p2.calls == 0  # all answered from p1's entries
    assert engine.n_cache_hits == 5
    # ...while a differently-configured problem never collides
    p3 = CountingSphere(3)
    p3.extra = "different content"
    engine.evaluate_batch(p3, X)
    assert p3.calls == 5


def test_process_pool_reused_across_identical_problem_instances():
    # One warm pool serves fresh-but-identical instances (the
    # problem_factory()-per-trial pattern) and different problems alike.
    rng = np.random.default_rng(0)
    with EvalEngine("process", workers=2, cache_size=0) as engine:
        for _ in range(3):
            problem = ConstrainedSphere(2)
            engine.evaluate_batch(problem, problem.space.sample(rng, 4))
        other = Sphere(3)
        X = other.space.sample(rng, 4)
        np.testing.assert_array_equal(engine.evaluate_batch(other, X),
                                      other.evaluate_batch(X))
        assert engine.n_pool_builds == 1


def test_overlapping_dispatches_for_different_problems_on_process_pool():
    # Overlapping dispatches for different problems (corner variants of a
    # fan-out, say) share the one pool: each chunk carries its problem.
    problems = [Sphere(2 + i) for i in range(4)]
    rng = np.random.default_rng(0)
    batches = [problem.space.sample(rng, 4) for problem in problems]
    expected = [problem.evaluate_batch(X) for problem, X in zip(problems, batches)]
    with EvalEngine("process", workers=2, cache_size=0) as engine:
        for _ in range(8):
            handles = [engine.submit(p, X) for p, X in zip(problems, batches)]
            for handle, rows in zip(handles, expected):
                np.testing.assert_array_equal(engine.gather(handle), rows)
        assert engine.n_pool_builds == 1


@pytest.mark.parametrize("backend", ["process", "remote"])
def test_process_backend_rejects_unpicklable_problem(backend, make_engine):
    # Pool tasks and remote workers receive the engine's pickle of the
    # problem, so an unpicklable problem is refused before any dispatch
    # rather than silently evaluated some other way.
    class LocalSphere(Sphere):  # a class local to a function does not pickle
        pass

    problem = LocalSphere(2)
    X = problem.space.sample(np.random.default_rng(0), 4)
    with make_engine(backend, 2) as engine:
        for n in (1, len(X)):
            with pytest.raises(TypeError, match="picklable"):
                engine.evaluate_batch(problem, X[:n])
        assert engine.n_pool_builds == 0
        assert engine.n_sim_calls == 0
        if backend == "remote":
            # The refusal is the caller's fault, not the hosts': neither
            # worker is quarantined and nothing was requeued, so the same
            # engine still serves a picklable problem.
            stats = engine._remote._coordinator.stats()
            assert stats["n_workers"] == 2
            assert stats["requeues"] == 0
            sphere = Sphere(2)
            np.testing.assert_array_equal(engine.evaluate_batch(sphere, X),
                                          sphere.evaluate_batch(X))


def test_hotpath_report_nonzero_under_process_backend():
    # Workers ship their per-chunk counter deltas back, so the report no
    # longer silently reads zero when the simulation ran in a pool.
    from repro.circuits import FoldedCascodeOTA
    problem = FoldedCascodeOTA().problem()
    with EvalEngine("process", workers=2) as engine:
        engine.evaluate_batch(problem, problem.space.sample(np.random.default_rng(1), 2))
        report = engine.hotpath_report()
    assert report["assemble_s"] > 0
    assert report["solve_s"] > 0
    assert report["newton_iterations"] > 0
    assert report["ac_solves"] > 0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        EvalEngine("gpu")
    with pytest.raises(ValueError):
        EvalEngine("async")  # removed backend
    with pytest.raises(ValueError):
        EvalEngine("thread")  # removed backend: process covers it
    with pytest.raises(ValueError):
        EvalEngine("process", workers=0)
    with pytest.raises(ValueError):
        EvalEngine("serial", cache_size=-1)


def test_default_workers_positive():
    assert default_workers() >= 1


# ----------------------------------------------------------------------
# Optimizer wiring: histories are backend-independent, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["process", "remote"])
def test_random_search_history_bit_identical(backend, make_engine):
    serial = RandomSearch(Sphere(3), 20, seed=5).run()
    with make_engine(backend, 3) as engine:
        parallel = RandomSearch(Sphere(3), 20, seed=5, engine=engine).run()
    np.testing.assert_array_equal(serial.X, parallel.X)
    np.testing.assert_array_equal(serial.F, parallel.F)
    np.testing.assert_array_equal(serial.fom, parallel.fom)
    np.testing.assert_array_equal(serial.feasible, parallel.feasible)


@pytest.mark.parametrize("backend", ["process", "remote"])
def test_batched_dnnopt_history_bit_identical(backend, make_engine):
    problem_factory = lambda: ConstrainedSphere(3)
    serial = small_dnnopt(problem_factory(), 18, seed=7, batch_size=3).run()
    with make_engine(backend, 2) as engine:
        parallel = small_dnnopt(problem_factory(), 18, seed=7, batch_size=3,
                                engine=engine).run()
    np.testing.assert_array_equal(serial.X, parallel.X)
    np.testing.assert_array_equal(serial.F, parallel.F)
    np.testing.assert_array_equal(serial.fom, parallel.fom)


def test_engine_shared_across_optimizers_caches_duplicates():
    # Two same-seed runs on one engine: the second run's queries are all
    # cache hits, so the problem only simulates once per unique design.
    problem = CountingSphere(2)
    engine = EvalEngine("serial")
    h1 = RandomSearch(problem, 12, seed=9, engine=engine).run()
    calls_after_first = problem.calls
    h2 = RandomSearch(problem, 12, seed=9, engine=engine).run()
    assert problem.calls == calls_after_first
    np.testing.assert_array_equal(h1.X, h2.X)


# ----------------------------------------------------------------------
# Canonical cache keys (DesignSpace.canonical) for integer dimensions
# ----------------------------------------------------------------------
class MixedIntegerSphere(Sphere):
    """Sphere with an integer dimension spanning negative values — the
    case where ``np.round`` produces ``-0.0`` and raw-byte hashing would
    alias one integer design to two cache keys."""

    def __init__(self):
        from repro.problems.base import (DesignSpace, Objective, Variable)
        space = DesignSpace([Variable("n", -5.0, 5.0, kind="integer"),
                             Variable("w", -5.0, 5.0)])
        super(Sphere, self).__init__(space, Objective("sphere", scale=50.0), [])
        self.calls = 0

    def _evaluate(self, x):
        self.calls += 1
        return [float(np.sum(x ** 2))]


def test_canonical_normalizes_signed_zero_on_integer_dims():
    space = MixedIntegerSphere().space
    minus = space.canonical(np.array([-0.3, 1.0]))
    plus = space.canonical(np.array([0.3, 1.0]))
    assert minus.tobytes() == plus.tobytes()  # same design, same bytes
    # np.round alone would have produced -0.0 here
    assert np.round(-0.3).tobytes() != np.round(0.3).tobytes()


def test_rounded_and_unrounded_integer_views_share_one_cache_entry():
    # -0.3 and +0.3 are both integer design 0: one simulation, one entry —
    # in the dedup pass, the memory cache, and the disk tier alike.
    problem = MixedIntegerSphere()
    with EvalEngine("serial") as engine:
        F = engine.evaluate_batch(problem, np.array([[-0.3, 1.0], [0.3, 1.0]]))
        assert problem.calls == 1
        assert engine.n_sim_calls == 1
        np.testing.assert_array_equal(F[0], F[1])
        engine.evaluate_batch(problem, np.array([[-0.0, 1.0], [0.0, 1.0]]))
        assert problem.calls == 1  # cache hit on every signed-zero view


def test_mixed_integer_disk_cache_determinism(tmp_path):
    problem_factory = MixedIntegerSphere
    X = np.array([[-0.4, 2.0], [0.4, 2.0], [2.6, -1.0], [-4.9, 0.5]])
    with EvalEngine(cache_dir=tmp_path) as e1:
        F1 = e1.evaluate_batch(problem_factory(), X)
        assert e1.n_sim_calls == 3  # first two rows are one design
    with EvalEngine(cache_dir=tmp_path) as e2:
        F2 = e2.evaluate_batch(problem_factory(), X)
        assert e2.n_sim_calls == 0
        assert e2.n_disk_hits == 3
    np.testing.assert_array_equal(F1, F2)


def test_seed_cache_answers_without_simulation():
    problem = CountingSphere(3)
    X = problem.space.sample(np.random.default_rng(1), 5)
    F = problem.evaluate_batch(X)
    problem.calls = 0
    with EvalEngine("serial") as engine:
        assert engine.seed_cache(problem, X, F) == 5
        assert engine.seed_cache(problem, X, F) == 0  # idempotent
        np.testing.assert_array_equal(engine.evaluate_batch(problem, X), F)
        assert problem.calls == 0
        assert engine.n_cache_hits == 5
    with pytest.raises(ValueError, match="seed_cache"):
        EvalEngine().seed_cache(problem, X, F[:2])


# ----------------------------------------------------------------------
# close() vs. in-flight submit(): raise, never hang
# ----------------------------------------------------------------------
def test_submit_after_close_raises(make_engine):
    # Both entry points share the closed-engine check on every backend: a
    # batch of fresh designs raises, and no pool is built to outlive close().
    problem = Sphere(2)
    rng = np.random.default_rng(0)
    for entry in ("submit", "evaluate_batch"):
        for backend in BACKENDS:
            engine = make_engine(backend, 2)
            engine.evaluate_batch(problem, problem.space.sample(rng, 2))
            engine.close()
            builds = engine.n_pool_builds
            with pytest.raises(RuntimeError, match="closed"):
                getattr(engine, entry)(problem, problem.space.sample(rng, 2))
            assert engine.n_pool_builds == builds, (entry, backend)
            assert engine._executor is None, (entry, backend)
            assert engine._submit_executor is None, (entry, backend)


def test_close_cancels_queued_submits_and_gather_raises():
    import threading
    import time as _time

    class SlowSphere(Sphere):
        def _evaluate(self, x):
            _time.sleep(0.1)
            return super()._evaluate(x)

    problem = SlowSphere(2)
    engine = EvalEngine("serial", workers=1, cache_size=0)
    # saturate the submit pool so later batches sit in its queue
    rng = np.random.default_rng(0)
    handles = [engine.submit(problem, problem.space.sample(rng, 1))
               for _ in range(12)]
    t0 = _time.perf_counter()
    engine.close()  # must not deadlock waiting on the whole queue
    assert _time.perf_counter() - t0 < 5.0
    outcomes = []
    for handle in handles:
        try:
            engine.gather(handle)
            outcomes.append("ok")
        except RuntimeError:
            outcomes.append("cancelled")
    # ...at least the tail of the queue was cancelled, and nothing hung
    assert "cancelled" in outcomes


# ----------------------------------------------------------------------
# blocking batch vs. pipelined submit: one simulation per design
# ----------------------------------------------------------------------
def test_blocking_batch_waits_for_inflight_submit_not_resimulates():
    # evaluate_batch used to skip the in-flight registry entirely, so a
    # blocking batch racing a pipelined submit() of the same designs
    # simulated them twice (and the late result clobbered the cache).
    import threading

    class GatedSphere(Sphere):
        def __init__(self, dim=2):
            super().__init__(dim)
            self.calls = 0
            self.gate = threading.Event()

        def _evaluate(self, x):
            self.calls += 1
            self.gate.wait(10.0)
            return super()._evaluate(x)

    problem = GatedSphere(2)
    X = problem.space.sample(np.random.default_rng(3), 3)
    engine = EvalEngine("serial")
    handle = engine.submit(problem, X)  # keys go in flight synchronously
    done = threading.Event()
    result = {}

    def blocking():
        result["F"] = engine.evaluate_batch(problem, X)
        done.set()

    thread = threading.Thread(target=blocking)
    thread.start()
    assert not done.wait(0.3)  # parked on the submit's future, not simulating
    problem.gate.set()
    thread.join(30)
    assert done.is_set()
    np.testing.assert_array_equal(result["F"], engine.gather(handle))
    assert problem.calls == len(X)       # every design simulated exactly once
    assert engine.n_sim_calls == len(X)
    assert engine.n_dedup >= len(X)      # the blocking batch counted as dedup
    engine.close()


# ----------------------------------------------------------------------
# clear_cache(): locked, and scoped to the RAM tier only
# ----------------------------------------------------------------------
def test_clear_cache_drops_ram_tier_but_keeps_disk_tier(tmp_path):
    problem = Sphere(3)
    X = problem.space.sample(np.random.default_rng(1), 6)
    with EvalEngine(cache_dir=tmp_path) as engine:
        engine.evaluate_batch(problem, X)
        assert engine.n_sim_calls == 6
        engine.clear_cache()
        engine.evaluate_batch(problem, X)
        assert engine.n_sim_calls == 6   # no re-simulation...
        assert engine.n_disk_hits == 6   # ...the persistent tier answered


def test_clear_cache_is_safe_under_concurrent_submits():
    # clear_cache() used to mutate the cache dict without _state_lock,
    # racing the submit-pool threads' read/write cycles.
    import threading

    problem = Sphere(2)
    engine = EvalEngine("serial")
    rng = np.random.default_rng(0)
    errors = []
    stop = threading.Event()

    def clearer():
        while not stop.is_set():
            try:
                engine.clear_cache()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)
                return

    thread = threading.Thread(target=clearer)
    thread.start()
    try:
        for _ in range(40):
            handle = engine.submit(problem, problem.space.sample(rng, 4))
            engine.gather(handle)
    finally:
        stop.set()
        thread.join(10)
        engine.close()
    assert not errors


# ----------------------------------------------------------------------
# straggler write-back after close(): no-op, never a crash
# ----------------------------------------------------------------------
def test_cache_put_after_close_is_noop(tmp_path):
    # A dispatch thread finishing after close() lands its rows in
    # _cache_put; with a disk tier that used to raise "I/O operation on
    # closed file" from the closed shard writer.
    problem = Sphere(2)
    X = problem.space.sample(np.random.default_rng(0), 2)
    engine = EvalEngine(cache_dir=tmp_path)
    engine.evaluate_batch(problem, X)
    token = engine._problem_token(problem)
    key = engine._key(token, problem.space.canonical(X)[0])
    engine.close()
    engine._cache_put(key, np.array([1.0, 2.0]), True)  # must not raise
