"""OpenBLAS runs on one thread in forked workers and while an optimizer models.

Each pool worker's OpenBLAS would otherwise start a spinning thread per CPU,
so parallel trials and process-backend batches oversubscribe the host; in the
main process the modeling block drops to one thread and restores the count
afterwards.  The checks need OpenBLAS's thread-count getter and skip without
it.
"""

import multiprocessing as mp
import sys
import threading

import numpy as np
import pytest

from repro.core import Critic, DNNOpt, EvalEngine
from repro.core.blas import blas_threads, one_blas_thread, set_blas_threads
from repro.experiments.runner import _init_pool_worker
from repro.problems import ConstrainedSphere

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


@pytest.fixture
def two_blas_threads():
    """This process runs OpenBLAS on two threads for the test, then as before."""
    before = blas_threads()
    set_blas_threads(2)
    yield
    set_blas_threads(before)


def ready_dnn_opt():
    """A small DNN-Opt whose next ask trains a critic and an actor."""
    problem = ConstrainedSphere(2)
    opt = DNNOpt(problem, 12, 0, n_init=6, critic_epochs=2, actor_epochs=2,
                 critic_hidden=(8,), actor_hidden=(8,), max_pseudo=50)
    X = opt.ask()
    opt.tell(X, problem.evaluate_batch(X))
    return opt


def test_modeling_runs_on_one_blas_thread_and_restores_the_count(two_blas_threads,
                                                                 monkeypatch):
    seen = []
    fit = Critic.fit

    def recording_fit(self, *args, **kwargs):
        seen.append(blas_threads())
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(Critic, "fit", recording_fit)
    opt = ready_dnn_opt()
    assert blas_threads() == 2
    assert len(opt.ask()) == 1
    assert seen == [1]
    assert blas_threads() == 2


def test_blas_thread_count_is_restored_when_modeling_raises(two_blas_threads, monkeypatch):
    def failing_fit(self, *args, **kwargs):
        assert blas_threads() == 1
        raise RuntimeError("fit failed")

    monkeypatch.setattr(Critic, "fit", failing_fit)
    opt = ready_dnn_opt()
    with pytest.raises(RuntimeError, match="fit failed"):
        opt.ask()
    assert blas_threads() == 2
    assert opt.history.modeling_time > 0.0


def test_overlapping_blocks_on_threads_share_one_scope(two_blas_threads):
    """Every block runs on one thread, and the count comes back only after
    the last overlapping block leaves."""
    seen = []

    def model():
        for _ in range(200):
            with one_blas_thread():
                seen.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=model) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [1] * 800
    assert blas_threads() == 2
