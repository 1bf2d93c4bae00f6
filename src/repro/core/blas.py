"""OpenBLAS thread control: one thread per forked worker and while modeling.

OpenBLAS starts a thread per CPU in every process that loads it, and those
threads spin while they wait for work.  Two pool workers on two CPUs then
run four spinning threads, and the small dense products of critic training
get several times slower than in one process.  Every process the repo forks
for parallel work (``run_trials`` pool workers, the process backend's pool
workers, ``python -m repro.core.service`` workers) calls
``set_blas_threads(1)`` at start-up; the parallelism comes from the
processes instead.

In the main process the optimizers' modeling blocks
(``Optimizer.timed_modeling()``: DNN-Opt's critic and actor fits, BO-wEI's
and GASPAD's GP fits) run inside :func:`one_blas_thread`, which drops
OpenBLAS to one thread and restores the previous count on exit.  Their
products are small (the critic's are 128-row minibatches through 64-wide
layers), so waking and joining a second thread costs more than it saves.

The library is found among the shared objects mapped into the process, and
its entry points are tried under the names numpy's bundled OpenBLAS
(``scipy_openblas``, 64-bit interface) and a system OpenBLAS export.  They
are resolved once per process (:func:`openblas_threading`); a worker forked
after the first call inherits them and does not scan again, so the process
backend resolves them before it starts its pool.  Where neither is found
(another BLAS, or no ``/proc``) every function here does nothing.
Histories do not depend on the thread count: they stay bit-identical across
backends and worker counts (the determinism suites pin that), and with the
modeling scope on or off.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["blas_threads", "one_blas_thread", "openblas_threading", "set_blas_threads"]

#: (getter, setter) export pairs, tried in order
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def openblas_threading():
    """OpenBLAS's ``(get_num_threads, set_num_threads)`` in this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count in this process, or None without OpenBLAS."""
    functions = openblas_threading()
    return None if functions is None else int(functions[0]())


def set_blas_threads(count: int) -> None:
    """Run OpenBLAS on ``count`` threads in this process (a no-op without OpenBLAS)."""
    functions = openblas_threading()
    if functions is not None:
        functions[1](int(count))


# The thread count is process-wide, so nested blocks, and blocks running at
# once on several threads, share one scope: the first to enter saves the
# count and the last to leave restores it.
_scope_lock = threading.Lock()
_scope_depth = 0
_scope_saved: int | None = None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block on one OpenBLAS thread; restore the previous count on exit."""
    global _scope_depth, _scope_saved
    with _scope_lock:
        if _scope_depth == 0:
            _scope_saved = blas_threads()
            if _scope_saved not in (None, 1):
                set_blas_threads(1)
        _scope_depth += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scope_depth -= 1
            if _scope_depth == 0 and _scope_saved not in (None, 1):
                set_blas_threads(_scope_saved)
