"""RP07 — no blocking operations while a *hot* lock is held.

Built on :mod:`repro.tools.flow`: a blocking operation — socket
send/recv/accept, ``subprocess``, ``Future.result()``, ``Thread.join()``,
``Executor.shutdown()``, ``Condition``/``Event`` ``wait`` on a *different*
object, or a simulator dispatch (``.evaluate``/``.evaluate_batch``) — must
not be reachable, directly or through any resolved call chain, while one of
the hot locks (``_lock``/``_cond``/``_state_lock``, see
``flow.HOT_LOCK_ATTRS``) is held.  Hot locks guard in-memory state on the
request path; blocking under one stalls every concurrent dispatch, and the
repo's own close()/stats() deadlocks came from exactly this shape.

Sanctioned patterns that are *not* flagged:

* ``self._cond.wait(...)`` while holding ``self._cond`` — the
  producer/consumer idiom (the wait releases the lock it waits on);
* blocking under a coarse serialization lock with a descriptive name
  (``_eval_lock``, ``_send_lock``, ``_conn_lock``) — those locks exist
  to serialize blocking work;
* sites waived with ``# lint: disable=RP07`` plus a why-comment, or whole
  functions listed in ``flow.RP07_WAIT_ALLOWLIST``.

The fix shape is always the same: swap state out under the lock, do the
blocking work after releasing it (see ``EvalEngine.close`` /
``FleetCoordinator.stats`` for worked examples).
"""

from __future__ import annotations

from typing import Iterator

from .. import flow
from . import Context, Finding, Module, Rule


class BlockingUnderLock(Rule):
    code = "RP07"
    name = "blocking-under-lock"

    def check(self, module: Module, ctx: Context) -> Iterator[Finding]:
        flow.register(ctx, module)
        return iter(())

    def finalize(self, ctx: Context) -> Iterator[Finding]:
        analysis = flow.analysis_of(ctx)
        for path, line, col, message in analysis.blocking_findings():
            yield Finding(self.code, path, line, col, message)
