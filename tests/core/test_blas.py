"""Forked workers run OpenBLAS on one thread.

Each pool worker's OpenBLAS would otherwise start a spinning thread per CPU,
so parallel trials and process-backend batches oversubscribe the host.  The
checks need OpenBLAS's thread-count getter and skip without it.
"""

import ctypes
import multiprocessing as mp

import numpy as np
import pytest

from repro.core import EvalEngine
from repro.core.blas import _openblas_function
from repro.experiments.runner import _init_pool_worker
from repro.problems import ConstrainedSphere


def blas_threads():
    """OpenBLAS's thread count in this process, or None without a getter."""
    getter = _openblas_function(("scipy_openblas_get_num_threads64_",
                                 "openblas_get_num_threads64_", "openblas_get_num_threads"))
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


pytestmark = pytest.mark.skipif(blas_threads() is None,
                                reason="no OpenBLAS thread-count getter in this process")


class BlasThreadsProblem(ConstrainedSphere):
    """Reports the evaluating process's BLAS thread count as its objective."""

    def _evaluate(self, x):
        return [float(blas_threads()), float(np.sum(x))]


def _report_threads(_):
    return blas_threads()


def test_process_backend_workers_run_one_blas_thread():
    problem = BlasThreadsProblem(2)
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with EvalEngine("process", workers=2) as engine:
        rows = engine.evaluate_batch(problem, X)
    assert rows[:, 0].tolist() == [1.0] * len(X)


def test_trial_pool_workers_run_one_blas_thread():
    with mp.get_context("fork").Pool(2, initializer=_init_pool_worker,
                                     initargs=(None,)) as pool:
        assert pool.map(_report_threads, range(4)) == [1] * 4
