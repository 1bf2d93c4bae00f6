"""Non-finite design entries: the failure-row contract through every path.

A NaN entry names no design, so it must come back as the problem's
``failure_vector()``.  An infinite entry is clipped to its bound by the
design space, so it must give exactly the bound design's row.  Both hold
for ``evaluate``, for ``evaluate_batch`` (where the StrongARM latch runs the
batch's transients in lock-step, so the NaN design shares its batch with
healthy ones) and for ``EvalEngine`` on the serial, process and remote
backends and on a fleet tenant's engine.  Failure rows are cached like any other row: a second engine on
the same ``cache_dir`` answers every design from disk, bit for bit.  A
merely bad design (a bound corner) must stay distinct from a failure row.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.circuits import CTLE, FoldedCascodeOTA, StrongArmLatch
from repro.core import EvalEngine
from repro.core.fleet import FleetCoordinator


def _designs(circuit):
    """Nominal, NaN, +inf, -inf, and the two bound designs the infs clip to."""
    space = circuit.problem().space
    nominal = np.array([circuit.nominal()[name] for name in space.names])
    nan, pos_inf, neg_inf, upper, lower = (nominal.copy() for _ in range(5))
    nan[1] = np.nan
    pos_inf[0], upper[0] = np.inf, space.upper[0]
    neg_inf[-1], lower[-1] = -np.inf, space.lower[-1]
    return np.vstack([nominal, nan, pos_inf, neg_inf, upper, lower])


def _check_rows(problem, rows):
    failure = problem.failure_vector()
    assert rows[1].tobytes() == failure.tobytes()
    assert rows[2].tobytes() == rows[4].tobytes()
    assert rows[3].tobytes() == rows[5].tobytes()
    for row in (rows[0], rows[4], rows[5]):
        assert np.isfinite(row).all()
        assert not np.array_equal(row, failure)


@pytest.mark.parametrize("cls", [CTLE, FoldedCascodeOTA, StrongArmLatch],
                         ids=lambda cls: cls.__name__)
def test_nonfinite_entries_through_evaluate_and_evaluate_batch(cls):
    circuit = cls()
    problem = circuit.problem()
    X = _designs(circuit)
    single = np.vstack([problem.evaluate(x) for x in X])
    _check_rows(problem, single)
    batched = problem.evaluate_batch(X)
    assert batched.tobytes() == single.tobytes()


@contextmanager
def _engine(backend, request, cache_dir):
    """An engine of ``backend``; ``fleet`` is a tenant of a 2-worker fleet."""
    if backend in ("serial", "process"):
        with EvalEngine(backend, workers=2, cache_dir=cache_dir) as engine:
            yield engine
        return
    hosts = [s.address for s in request.getfixturevalue("two_local_servers")]
    if backend == "remote":
        with EvalEngine("remote", hosts=hosts, cache_dir=cache_dir) as engine:
            yield engine
        return
    with FleetCoordinator(hosts=hosts) as fleet:
        with fleet.engine("nonfinite", cache_dir=cache_dir) as engine:
            yield engine


@pytest.mark.parametrize("backend", ["serial", "process", "remote", "fleet"])
@pytest.mark.parametrize("cls", [CTLE, StrongArmLatch], ids=lambda cls: cls.__name__)
def test_nonfinite_entries_through_engine_and_disk_cache(cls, backend, tmp_path,
                                                         request):
    circuit = cls()
    problem = circuit.problem()
    X = _designs(circuit)
    expected = np.vstack([problem.evaluate(x) for x in X])
    with _engine(backend, request, tmp_path) as engine:
        rows = engine.evaluate_batch(problem, X)
    assert rows.tobytes() == expected.tobytes()
    _check_rows(problem, rows)

    # Each +-inf design is the same design as its bound twin; a fresh engine
    # answers every distinct design from disk.
    distinct = {problem.space.canonical(x).tobytes() for x in X}
    with EvalEngine("serial", cache_dir=tmp_path) as second:
        again = second.evaluate_batch(problem, X)
        assert second.n_sim_calls == 0
        assert second.n_disk_hits == len(distinct) == 4
    assert again.tobytes() == expected.tobytes()
