"""Tests for the runtime lock sanitizer (``repro.tools.sanitize``).

The smoke tests run in a subprocess: ``install()`` permanently wraps the
instrumented classes' ``__init__``, which must not leak into the rest of
the suite (the suite-wide path is the ``REPRO_SANITIZE=1`` CI job, wired
in ``tests/conftest.py``).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.tools.sanitize import SanitizedLock, _stack

SRC = Path(__file__).resolve().parents[2] / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("REPRO_SANITIZE", None)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=180)


# --------------------------------------------------- proxy unit behaviour

def test_proxy_records_nesting_order_once():
    a = SanitizedLock(threading.Lock(), "A._lock")
    b = SanitizedLock(threading.Lock(), "B._lock")
    from repro.tools import sanitize
    sanitize._STATE.edges.clear()
    with a:
        with b:
            pass
        with b:          # second nesting: same edge, first witness kept
            pass
    edges = sanitize.observed_edges()
    assert ("A._lock", "B._lock") in edges
    assert ("B._lock", "A._lock") not in edges
    assert not _stack()  # balanced: nothing leaked on this thread


def test_reentrant_rlock_is_not_an_edge():
    from repro.tools import sanitize
    inner = threading.RLock()
    lock = SanitizedLock(inner, "R._lock")
    sanitize._STATE.edges.clear()
    with lock:
        with lock:       # re-entrant: no self-edge, no crash
            pass
    assert sanitize.observed_edges() == {}
    assert not _stack()


def test_condition_wait_releases_on_shadow_stack():
    cond = SanitizedLock(threading.Condition(), "C._cond")
    with cond:
        assert cond.held_by_current_thread()
        cond.wait(0.01)  # times out; must re-appear as held afterwards
        assert cond.held_by_current_thread()
    assert not cond.held_by_current_thread()


def test_proxy_forwards_unknown_attrs_to_inner():
    cond = SanitizedLock(threading.Condition(), "C._cond")
    assert cond._is_owned() is False  # forwarded; used by fleet tests
    plain = SanitizedLock(threading.Lock(), "P._lock")
    assert plain.locked() is False
    with plain:
        assert plain.locked() is True


def test_acquire_release_api_matches_with_statement():
    lock = SanitizedLock(threading.Lock(), "L._lock")
    assert lock.acquire() is True
    assert lock.held_by_current_thread()
    lock.release()
    assert not lock.held_by_current_thread()
    assert lock.acquire(False) is True
    lock.release()


# ------------------------------------------------------- subprocess smoke

def test_smoke_engine_workload_edges_subset_of_static():
    proc = _run("""
import json, tempfile
import numpy as np
from repro.tools import sanitize
sanitize.install()
from repro.core import EvalEngine
from repro.problems import Sphere

problem = Sphere(4)
rng = np.random.default_rng(0)
X = problem.space.sample(rng, 8)
with tempfile.TemporaryDirectory() as d:
    with EvalEngine("process", workers=2, cache_dir=d) as engine:
        engine.evaluate_batch(problem, X)
        engine.evaluate_batch(problem, X)   # cache-hit pass
print(json.dumps({
    "edges": sorted(f"{s}->{d}" for (s, d) in sanitize.observed_edges()),
    "problems": sanitize.check_against_static(),
    "violations": [v.render() for v in sanitize.violations()],
}))
""")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "EvalEngine._state_lock->DiskCache._lock" in out["edges"]
    assert out["problems"] == []
    assert out["violations"] == []


def test_smoke_deliberate_guarded_violation_is_reported():
    proc = _run("""
import json
from repro.tools import sanitize
sanitize.install()
from repro.core import EvalEngine

engine = EvalEngine("serial")
sanitize.probe(engine, "_cache")       # guarded read, no lock held
engine.close()
violations = sanitize.drain_violations()
print(json.dumps([ (v.cls, v.attr, v.lock) for v in violations ]))
""")
    assert proc.returncode == 0, proc.stderr
    reported = json.loads(proc.stdout.strip().splitlines()[-1])
    assert ["EvalEngine", "_cache", "_state_lock"] in reported


def test_smoke_test_code_direct_pokes_are_not_violations():
    proc = _run("""
import json
from repro.tools import sanitize
sanitize.install()
from repro.core import EvalEngine

engine = EvalEngine("serial")
_ = engine._cache            # direct access from non-repo code: exempt
engine._closed               # same
engine.close()
print(json.dumps([v.render() for v in sanitize.violations()]))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_smoke_holds_annotated_entry_from_test_code_is_exempt():
    proc = _run("""
import json
import numpy as np
from repro.tools import sanitize
sanitize.install()
from repro.core import EvalEngine
from repro.problems import Sphere

problem = Sphere(2)
engine = EvalEngine("serial")
X = problem.space.sample(np.random.default_rng(0), 1)
engine.evaluate_batch(problem, X)
token = engine._problem_token(problem)
key = engine._key(token, problem.space.canonical(X)[0])
engine.close()
engine._cache_put(key, np.array([1.0]), True)   # holds: contract caller
print(json.dumps([v.render() for v in sanitize.violations()]))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_smoke_install_is_idempotent_and_preserves_behaviour():
    proc = _run("""
import numpy as np
from repro.tools import sanitize
sanitize.install()
sanitize.install()                      # second call: no double-wrap
from repro.core import EvalEngine
from repro.problems import Sphere

problem = Sphere(3)
X = problem.space.sample(np.random.default_rng(1), 5)
expected = problem.evaluate_batch(X)
with EvalEngine("process", workers=2) as engine:
    np.testing.assert_array_equal(engine.evaluate_batch(problem, X), expected)
    assert isinstance(engine._state_lock, sanitize.SanitizedLock)
print("OK")
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("OK")
