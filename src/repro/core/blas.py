"""One OpenBLAS thread per forked worker.

OpenBLAS starts a thread per CPU in every process that loads it, and those
threads spin while they wait for work.  Two pool workers on two CPUs then
run four spinning threads, and the small dense products of critic training
get several times slower than in one process.  Every process the repo forks
for parallel work (``run_trials`` pool workers, the process backend's pool
workers, ``python -m repro.core.service`` workers) calls
:func:`single_thread_blas` at start-up; the parallelism comes from the
processes instead.

The library is found among the shared objects mapped into the process, and
its entry points are tried under the names numpy's bundled OpenBLAS
(``scipy_openblas``, 64-bit interface) and a system OpenBLAS export.  Where
neither is found (another BLAS, or no ``/proc``) it does nothing.
Histories stay bit-identical across backends and worker counts; the
determinism suites pin that.
"""

from __future__ import annotations

import ctypes

__all__ = ["single_thread_blas"]

_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
            "openblas_set_num_threads")


def _openblas_function(symbols: tuple[str, ...]):
    """The first of ``symbols`` exported by an OpenBLAS mapped into this process."""
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
        for symbol in symbols:
            function = getattr(lib, symbol, None)
            if function is not None:
                return function
    return None


def single_thread_blas() -> None:
    """Run OpenBLAS on one thread in this process (a no-op without OpenBLAS)."""
    setter = _openblas_function(_SETTERS)
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter(1)
