"""Single source of truth for the eval-service wire-protocol frame schema.

Transcribed from the spec in the :mod:`repro.core.service` module docstring
(the prose remains normative; this table is its machine-checkable mirror).
Every frame is a length-prefixed UTF-8 JSON object; requests carry ``"op"``
and replies carry ``"ok"``.  Protocol v2 adds an optional integer ``"id"``
on any request, echoed on its reply — ``"id"`` is therefore legal on every
op and never listed among the required keys below.

The RP04 checker in :mod:`repro.tools.lint` validates every literal frame
construction and every ``op == "..."`` handler dispatch in the linted tree
against this table, so adding an op means adding a row here first — which
is exactly the point.
"""

from __future__ import annotations

from dataclasses import dataclass

PROTOCOL_VERSION = 2


@dataclass(frozen=True)
class OpSpec:
    """One request op of the wire protocol.

    ``required`` are the request keys that must accompany ``"op"``.
    ``reply`` documents the keys of a successful reply (beyond ``"ok"``) —
    informational, not currently enforced.  ``roles`` says which server
    handles the op (``"worker"`` = :class:`EvalWorkerServer`,
    ``"registry"`` = :class:`RegistryServer`).  ``external`` marks ops whose
    senders legitimately live outside ``src/`` (CLI tools, tests, operator
    scripts), so RP04 does not require an in-tree consumer for them.
    """

    name: str
    required: tuple[str, ...]
    reply: tuple[str, ...]
    roles: tuple[str, ...]
    external: bool = False


OPS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("hello", (), ("protocol", "pid", "problems"),
               ("worker", "registry")),
        OpSpec("put_problem", ("token", "blob"), (), ("worker",)),
        OpSpec("eval", ("token", "X"), ("F", "counters", "n_sims"),
               ("worker",)),
        OpSpec("stats", (), ("pid", "n_sims", "cache_hits", "disk_hits",
                             "cache_entries", "problems", "uptime_s"),
               ("worker", "registry"), external=True),
        OpSpec("shutdown", (), (), ("worker",), external=True),
        OpSpec("register", ("address",), (), ("registry",)),
        OpSpec("heartbeat", ("address",), (), ("registry",)),
        OpSpec("deregister", ("address",), (), ("registry",)),
        OpSpec("workers", (), ("workers",), ("registry",), external=True),
    )
}

#: Keys legal on any request regardless of op (v2 multiplexing).
UNIVERSAL_KEYS = frozenset({"op", "id"})

#: Every server role appearing in ``OpSpec.roles`` — the single source for
#: RP04's whole-tree reconciliation gate and for fixtures/tests that need
#: the role universe (previously duplicated as literals in both).
ROLES: tuple[str, ...] = ("worker", "registry")

#: The concurrency-stack classes the runtime lock sanitizer
#: (:mod:`repro.tools.sanitize`, ``REPRO_SANITIZE=1``) instruments:
#: dotted module -> class name -> lock attributes to wrap.  This is also
#: the class universe whose observed lock-order edges are diffed against
#: the static graph from :mod:`repro.tools.flow` (RP06), so keep it in
#: sync with the locks those modules create — the "adding a lock"
#: checklist in the README points here.
SANITIZED_CLASSES: dict[str, dict[str, tuple[str, ...]]] = {
    "repro.core.engine": {
        "EvalEngine": ("_state_lock",),
    },
    "repro.core.service": {
        "MultiplexedConnection": ("_lock", "_send_lock"),
        "EvalWorkerServer": ("_problems_lock", "_eval_lock"),
    },
    "repro.core.fleet": {
        "WorkerRegistry": ("_lock",),
        "FleetCoordinator": ("_cond",),
        "_HostPump": ("_conn_lock",),
        "_DispatchState": ("_lock",),
    },
    "repro.core.diskcache": {
        "DiskCache": ("_lock",),
    },
    "repro.core.chaos": {
        "FaultPlan": ("_lock",),
        "ChaosProxy": ("_lock",),
        "_Session": ("_lock",),
    },
}
