"""Suite-wide wiring for the runtime lock sanitizer.

``REPRO_SANITIZE=1 pytest tests/core`` runs the normal tests with every
lock of the concurrency stack wrapped (see :mod:`repro.tools.sanitize`),
then fails the session if

* an observed lock-order edge is missing from the static RP06 graph
  (the linter would be blind to that ordering), or
* repo code touched a ``# guarded by:`` attribute without its lock.

Instrumentation must happen at collection time — before any test module
imports the classes — so it lives here rather than in a fixture.
"""

import os
import threading

import pytest

_SANITIZE = bool(os.environ.get("REPRO_SANITIZE"))

if _SANITIZE:
    from repro.tools import sanitize

    sanitize.install()


def pytest_sessionfinish(session, exitstatus):
    if not _SANITIZE:
        return
    from repro.tools import sanitize

    problems = sanitize.check_against_static()
    problems += [f"guarded-by violation: {v.render()}"
                 for v in sanitize.drain_violations()]
    edges = sanitize.observed_edges()
    print(f"\n[sanitize] {len(edges)} observed lock-order edge(s), "
          f"{len(problems)} problem(s)")
    for (src, dst), site in sorted(edges.items()):
        print(f"[sanitize]   {src} -> {dst}  (first at {site})")
    if problems:
        for p in problems:
            print(f"[sanitize] FAIL: {p}")
        session.exitstatus = 1


@pytest.fixture()
def two_local_servers():
    """Two in-process evaluation worker servers, closed after the test."""
    from repro.core import service

    servers, threads = [], []
    for _ in range(2):
        server = service.EvalWorkerServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
    yield servers
    for server in servers:
        server.close()
    for thread in threads:
        thread.join(timeout=5)
