"""Interprocedural concurrency analysis: call graph + per-function lock summaries.

This is the second stage of the contract linter (see ``repro.tools.lint``).
RP01-RP05 are lexical, one function at a time; the bugs they cannot see are
the *cross-function* ones — a lock-order inversion split across two methods,
a socket recv four calls below a ``with self._lock:``, an RNG seeded from a
value that never met the caller's seed.  This module builds the shared
machinery those checks need, stdlib-only so it runs anywhere the repo does:

* a module-level **call graph** over every function/method in the linted
  tree, resolved through imports (including relative ones), ``self.*``
  attribute types inferred from ``__init__``, and a unique-method-name
  fallback for duck-typed calls;
* per-function **lock summaries**: locks acquired directly via
  ``with self._lock:``, entry-held locks from ``# holds:`` annotations
  (the rp02 convention), and the transitive closure through calls;
* the global **lock-order graph** (nodes = class-qualified lock attrs,
  edges = "acquired while holding", each edge carrying a witness
  location) consumed by RP06 and diffed against the runtime sanitizer
  (``repro.tools.sanitize``);
* **blocking-call reachability** (RP07) and **RNG seed-taint** (RP08)
  queries layered on the same graph.

Run ``python -m repro.tools.flow [paths] --format dot|json`` to emit the
lock-order graph as a reviewable artifact; ``--check`` exits non-zero on
cycles (CI uploads the artifact from the lint job).
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .lint import Context, Module, _iter_py_files, dotted_of, parse_module
from .lint.rp02 import _guard_on, _holds_on

#: Lock attribute names considered *hot* (guarding in-memory state touched on
#: the request path).  Blocking while holding one of these stalls every
#: concurrent dispatch, so RP07 flags it; coarse serialization locks with
#: descriptive names (``_eval_lock``, ``_send_lock``, ``_conn_lock``)
#: intentionally fall outside this set — blocking under them is their
#: documented purpose.
HOT_LOCK_ATTRS = frozenset({"_lock", "_cond", "_state_lock"})

#: Constructors whose result is treated as a lock when assigned to ``self.X``.
_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})

#: Fully-resolved call targets that block the calling thread.
_BLOCKING_DOTTED = {
    "time.sleep": "time.sleep()",
    "select.select": "select.select()",
    "socket.create_connection": "socket.create_connection() (TCP connect)",
    "subprocess.run": "subprocess.run()",
    "subprocess.Popen": "subprocess.Popen()",
    "subprocess.call": "subprocess.call()",
    "subprocess.check_call": "subprocess.check_call()",
    "subprocess.check_output": "subprocess.check_output()",
    "os.waitpid": "os.waitpid()",
}

#: Method names that block regardless of receiver type.  ``wait`` and
#: ``shutdown`` are handled specially in :meth:`_Walker._classify_blocking`;
#: ``evaluate``/``evaluate_batch`` are the simulator dispatch calls the issue
#: class exists for — a SPICE run takes seconds to minutes.
_BLOCKING_ATTRS = {
    "sendall": "socket send",
    "recv": "socket recv",
    "recv_into": "socket recv",
    "recvfrom": "socket recv",
    "accept": "socket accept",
    "evaluate": "simulator dispatch (.evaluate)",
    "evaluate_batch": "simulator dispatch (.evaluate_batch)",
    "result": "Future.result()",
    "join": "Thread.join()",
}

#: Function keys (``Cls.method`` or bare function name) whose wait-style
#: blocking under a lock is an audited, intentional pattern.  Waiving here
#: (with a why-comment at the entry) suppresses RP07 for the whole function;
#: single sites are waived inline with ``# lint: disable=RP07``.
RP07_WAIT_ALLOWLIST: frozenset[str] = frozenset()

_SEEDISH = re.compile(r"seed|salt|entropy", re.IGNORECASE)

#: Method names too generic for the unique-method resolution fallback: they
#: exist on builtin containers / stdlib concurrency objects, so a call like
#: ``self._pending.get(...)`` must not resolve to the one tree class that
#: happens to define ``get``.
_COMMON_METHODS = frozenset(
    name
    for obj in (dict, list, set, str, bytes, tuple, frozenset, int, float)
    for name in dir(obj) if not name.startswith("__")
) | frozenset({
    "close", "join", "wait", "acquire", "release", "notify", "notify_all",
    "start", "run", "submit", "shutdown", "result", "put", "get_nowait",
    "put_nowait", "send", "recv", "sendall", "accept", "connect", "read",
    "write", "flush", "open", "stop", "cancel", "set", "is_set", "empty",
    "locked", "fileno", "settimeout", "snapshot", "name",
})

_RNG_MAKERS = frozenset({"default_rng", "Random", "SeedSequence", "RandomState"})


def _self_attr(node: ast.AST) -> str | None:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"):
        return node.attr
    return None


@dataclass(frozen=True)
class AcquireSite:
    """One ``with self.<lock>:`` acquisition."""

    lock: str                    # class-qualified, e.g. "EvalEngine._state_lock"
    line: int
    col: int
    held_before: frozenset[str]  # qualified lock ids held on entry to the with


@dataclass(frozen=True)
class CallSite:
    """One call expression with the locks lexically held around it."""

    callees: tuple[str, ...]     # resolved candidate function keys (may be empty)
    display: str                 # how the call is spelled at the site
    line: int
    col: int
    held: frozenset[str]
    #: the same node was already recorded as a direct BlockSite — keep the
    #: call edge for the lock graph but don't double-report it under RP07
    also_block: bool = False


@dataclass(frozen=True)
class BlockSite:
    """One directly-blocking operation."""

    desc: str
    line: int
    col: int
    held: frozenset[str]         # already excludes a same-object cond wait


@dataclass(frozen=True)
class RngSite:
    """One seeded RNG construction whose argument RP08 must taint-check."""

    maker: str                   # "default_rng" / "Random" / ...
    arg: ast.expr
    line: int
    col: int


@dataclass
class ClassInfo:
    """Per-class facts needed for resolution and lock qualification."""

    name: str
    module: Module
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)     # name -> fn key
    lock_attrs: set[str] = field(default_factory=set)
    guarded: dict[str, str] = field(default_factory=dict)     # attr -> lock attr
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class name


@dataclass
class FnInfo:
    """One function/method with its lock, call, blocking and taint facts."""

    key: str                     # "repro.core.engine.EvalEngine.close"
    qual: str                    # "EvalEngine.close" — display name
    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: ClassInfo | None
    entry_holds: frozenset[str] = frozenset()
    acquires: list[AcquireSite] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocks: list[BlockSite] = field(default_factory=list)
    rng_sites: list[RngSite] = field(default_factory=list)
    returns: list[ast.expr] = field(default_factory=list)
    assigns: dict[str, list[ast.expr]] = field(default_factory=dict)
    params: frozenset[str] = frozenset()


@dataclass(frozen=True)
class EdgeWitness:
    """Where one lock-order edge was observed in source."""

    path: str
    line: int
    func: str                    # qualified function name
    via: str                     # "with" or "call to <name>"


@dataclass
class LockGraph:
    """The global lock acquisition-order graph."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], EdgeWitness] = field(default_factory=dict)

    def add(self, src: str, dst: str, witness: EdgeWitness) -> None:
        if src == dst:
            return  # re-entrant acquisition (RLock) is not an ordering edge
        self.nodes.add(src)
        self.nodes.add(dst)
        self.edges.setdefault((src, dst), witness)

    def cycles(self, cap: int = 20) -> list[list[str]]:
        """Simple cycles, each as a node list (first node repeated last)."""
        adj: dict[str, list[str]] = {}
        for (src, dst) in self.edges:
            adj.setdefault(src, []).append(dst)
        for outs in adj.values():
            outs.sort()
        found: list[list[str]] = []
        seen_keys: set[tuple[str, ...]] = set()

        def dfs(start: str, node: str, path: list[str],
                on_path: set[str]) -> None:
            if len(found) >= cap:
                return
            for nxt in adj.get(node, ()):
                if nxt < start:
                    continue  # canonical: cycles rooted at their min node
                if nxt == start:
                    cyc = path + [start]
                    key = tuple(cyc)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        found.append(cyc)
                elif nxt not in on_path:
                    on_path.add(nxt)
                    dfs(start, nxt, path + [nxt], on_path)
                    on_path.discard(nxt)

        for start in sorted(self.nodes):
            dfs(start, start, [start], {start})
        return found

    def to_json(self) -> dict[str, object]:
        edges = [
            {"src": src, "dst": dst, "path": w.path, "line": w.line,
             "func": w.func, "via": w.via}
            for (src, dst), w in sorted(self.edges.items())
        ]
        return {
            "version": 1,
            "nodes": sorted(self.nodes),
            "edges": edges,
            "cycles": [" -> ".join(c) for c in self.cycles()],
        }

    def to_dot(self) -> str:
        out = ["digraph lock_order {", "  rankdir=LR;",
               '  node [shape=box, fontname="monospace"];']
        for node in sorted(self.nodes):
            attr = node.rsplit(".", 1)[-1]
            style = ', style=filled, fillcolor="#ffe0e0"' \
                if attr in HOT_LOCK_ATTRS else ""
            out.append(f'  "{node}" [label="{node}"{style}];')
        for (src, dst), w in sorted(self.edges.items()):
            label = f"{Path(w.path).name}:{w.line}"
            out.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        for cyc in self.cycles():
            out.append(f'  // CYCLE: {" -> ".join(cyc)}')
        out.append("}")
        return "\n".join(out)


def _hot(held: frozenset[str]) -> list[str]:
    """The hot locks within a held set (class-qualified ids)."""
    return sorted(h for h in held if h.rsplit(".", 1)[-1] in HOT_LOCK_ATTRS)


class _Aliases:
    """Import table for one module, with relative imports resolved."""

    def __init__(self, module: Module) -> None:
        self.map: dict[str, str] = {}
        dotted = module.dotted_name()
        parts = dotted.split(".") if dotted else []
        is_pkg = Path(module.path).name == "__init__.py"
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.map[local] = target
            elif isinstance(node, ast.ImportFrom):
                base: str | None
                if node.level:
                    anchor = parts if is_pkg else parts[:-1]
                    anchor = anchor[:len(anchor) - (node.level - 1)] \
                        if node.level > 1 else anchor
                    if not anchor:
                        continue
                    base = ".".join(anchor)
                    if node.module:
                        base = f"{base}.{node.module}"
                else:
                    base = node.module
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.map[local] = f"{base}.{alias.name}"

    def resolve(self, dotted: str) -> str:
        root, _, rest = dotted.partition(".")
        base = self.map.get(root, root)
        return f"{base}.{rest}" if rest else base


class FlowAnalysis:
    """Call graph + lock/blocking/taint summaries over a set of modules."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules = list(modules)
        self.classes: dict[str, list[ClassInfo]] = {}       # bare name -> infos
        self.functions: dict[str, FnInfo] = {}
        self.method_owners: dict[str, list[ClassInfo]] = {}
        self._module_funcs: dict[str, dict[str, str]] = {}  # dotted -> name -> key
        self._aliases: dict[str, _Aliases] = {}
        self._module_assigns: dict[str, dict[str, list[ast.expr]]] = {}
        for module in self.modules:
            self._collect(module)
        for module in self.modules:
            self._walk_module(module)
        self._trans_acq: dict[str, frozenset[str]] | None = None
        self._trans_block: dict[str, tuple[BlockSite, ...]] | None = None

    # -- pass 1: symbol tables --------------------------------------------
    def _collect(self, module: Module) -> None:
        dotted = module.dotted_name()
        aliases = _Aliases(module)
        self._aliases[module.path] = aliases
        funcs = self._module_funcs.setdefault(dotted, {})
        assigns = self._module_assigns.setdefault(module.path, {})
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs[stmt.name] = f"{dotted}.{stmt.name}"
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        assigns.setdefault(target.id, []).append(stmt.value)
            elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    and isinstance(stmt.target, ast.Name)):
                assigns.setdefault(stmt.target.id, []).append(stmt.value)
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(module, aliases, stmt)

    def _collect_class(self, module: Module, aliases: _Aliases,
                       cls_node: ast.ClassDef) -> None:
        dotted = module.dotted_name()
        info = ClassInfo(cls_node.name, module, cls_node)
        for stmt in cls_node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info.methods[stmt.name] = f"{dotted}.{cls_node.name}.{stmt.name}"
            for node in ast.walk(stmt):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    lock = _guard_on(module, node.lineno)
                    if lock is not None:
                        info.guarded[attr] = lock
                    if isinstance(value, ast.Call):
                        callee = dotted_of(value.func)
                        if callee is None:
                            continue
                        resolved = aliases.resolve(callee)
                        if resolved in _LOCK_FACTORIES:
                            info.lock_attrs.add(attr)
                        else:
                            info.attr_types.setdefault(
                                attr, resolved.rsplit(".", 1)[-1])
        self.classes.setdefault(cls_node.name, []).append(info)
        for name in info.methods:
            self.method_owners.setdefault(name, []).append(info)

    # -- pass 2: function walks -------------------------------------------
    def _walk_module(self, module: Module) -> None:
        dotted = module.dotted_name()
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_function(module, stmt, None, f"{dotted}.{stmt.name}",
                                    stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                infos = self.classes.get(stmt.name, [])
                info = next((c for c in infos if c.node is stmt), None)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._walk_function(
                            module, sub, info,
                            f"{dotted}.{stmt.name}.{sub.name}",
                            f"{stmt.name}.{sub.name}")

    def _qualify(self, cls: ClassInfo | None, attr: str) -> str:
        return f"{cls.name}.{attr}" if cls is not None else f"<module>.{attr}"

    def _walk_function(self, module: Module,
                       fn_node: ast.FunctionDef | ast.AsyncFunctionDef,
                       cls: ClassInfo | None, key: str, qual: str) -> FnInfo:
        holds = frozenset(self._qualify(cls, name)
                          for name in _holds_on(module, fn_node))
        params = frozenset(
            a.arg for a in (fn_node.args.posonlyargs + fn_node.args.args
                            + fn_node.args.kwonlyargs))
        info = FnInfo(key, qual, module, fn_node, cls,
                      entry_holds=holds, params=params)
        self.functions[key] = info
        aliases = self._aliases[module.path]

        def lock_of(expr: ast.expr) -> str | None:
            attr = _self_attr(expr)
            if attr is None:
                return None
            if cls is not None and attr in cls.lock_attrs:
                return f"{cls.name}.{attr}"
            return None

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = set(held)
                for item in node.items:
                    visit(item.context_expr, held)
                    lock = lock_of(item.context_expr)
                    if lock is not None:
                        info.acquires.append(AcquireSite(
                            lock, item.context_expr.lineno,
                            item.context_expr.col_offset, frozenset(acquired)))
                        acquired.add(lock)
                inner = frozenset(acquired)
                for stmt in node.body:
                    visit(stmt, inner)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def runs later (thread target, callback): it does
                # not inherit the lexical locks; only # holds: applies.
                self._walk_function(module, node, cls, f"{key}.{node.name}",
                                    f"{qual}.{node.name}")
                return
            if isinstance(node, ast.Lambda):
                visit(node.body, frozenset())
                return
            if isinstance(node, ast.Return) and node.value is not None:
                info.returns.append(node.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.assigns.setdefault(target.id, []).append(node.value)
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                    and isinstance(node.target, ast.Name)):
                info.assigns.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, ast.Call):
                self._classify_call(info, aliases, node, held, lock_of)
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in fn_node.body:
            visit(stmt, holds)
        return info

    def _classify_call(self, info: FnInfo, aliases: _Aliases, node: ast.Call,
                       held: frozenset[str],
                       lock_of: Callable[[ast.expr], str | None]) -> None:
        func = node.func
        dotted = dotted_of(func)
        resolved = aliases.resolve(dotted) if dotted else None
        display = dotted or "<call>"

        # RNG construction sites for RP08 (seeded ones only; unseeded is RP01).
        if resolved is not None and (node.args or node.keywords):
            tail = resolved.rsplit(".", 1)[-1]
            if tail in _RNG_MAKERS and (
                    resolved.startswith("numpy.random.")
                    or resolved.startswith("random.")
                    or resolved == tail):
                arg: ast.expr | None = node.args[0] if node.args else None
                if arg is None:
                    for kw in node.keywords:
                        if kw.arg in ("seed", "x"):
                            arg = kw.value
                if arg is not None and not isinstance(arg, ast.Starred):
                    info.rng_sites.append(RngSite(
                        tail, arg, node.lineno, node.col_offset))

        # Directly-blocking operations.
        block_desc = self._blocking_desc(node, resolved, held, lock_of)
        is_block = block_desc is not None
        if block_desc is not None:
            desc, effective_held = block_desc
            info.blocks.append(BlockSite(
                desc, node.lineno, node.col_offset, effective_held))

        # Still record the call edge: a blocking call (e.g. evaluate_batch)
        # can transitively acquire locks the lock graph must know about.
        callees = self._resolve_call(info, aliases, node)
        if callees or held:
            info.calls.append(CallSite(
                callees, display, node.lineno, node.col_offset, held,
                also_block=is_block))

    def _blocking_desc(
            self, node: ast.Call, resolved: str | None,
            held: frozenset[str],
            lock_of: Callable[[ast.expr], str | None],
    ) -> tuple[str, frozenset[str]] | None:
        if resolved is not None and resolved in _BLOCKING_DOTTED:
            return _BLOCKING_DOTTED[resolved], held
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if attr == "wait":
            # cond.wait() releases the lock it waits on; waiting on the very
            # lock you hold is the sanctioned producer/consumer idiom.  Any
            # *other* lock stays held across the (blocking) wait.
            waited = lock_of(func.value)
            effective = held - {waited} if waited else held
            return ("wait on a different object"
                    if waited is None else "Condition.wait", effective)
        if attr == "shutdown":
            # Executor.shutdown(wait=True) joins worker threads/processes;
            # socket.shutdown(SHUT_RDWR) is instant and takes a positional
            # how-flag, which tells the two apart.
            if node.args:
                return None
            return "Executor.shutdown() (pool join)", held
        if attr not in _BLOCKING_ATTRS:
            return None
        if attr == "join":
            if isinstance(func.value, ast.Constant):
                return None  # "sep".join(...) — str.join
            if resolved is not None and resolved.startswith(("os.path.",
                                                             "posixpath.",
                                                             "ntpath.")):
                return None
        return _BLOCKING_ATTRS[attr], held

    # -- call resolution ---------------------------------------------------
    def _resolve_call(self, info: FnInfo, aliases: _Aliases,
                      node: ast.Call) -> tuple[str, ...]:
        func = node.func
        if isinstance(func, ast.Name):
            local = self._module_funcs.get(
                info.module.dotted_name(), {}).get(func.id)
            if local is not None:
                return (local,)
            return self._resolve_dotted(aliases.resolve(func.id))
        if not isinstance(func, ast.Attribute):
            return ()
        attr = func.attr
        base = func.value
        cls = info.cls
        # self.m(...)
        if isinstance(base, ast.Name) and base.id == "self" and cls is not None:
            key = cls.methods.get(attr)
            if key is not None:
                return (key,)
            return ()
        # self._attr.m(...) via __init__-inferred attribute types
        inner = _self_attr(base)
        if inner is not None and cls is not None:
            type_name = cls.attr_types.get(inner)
            if type_name is not None:
                for owner in self.classes.get(type_name, []):
                    key = owner.methods.get(attr)
                    if key is not None:
                        return (key,)
        # pkg.mod.func / pkg.mod.Cls / Cls.method through the import table
        dotted = dotted_of(func)
        if dotted is not None:
            hit = self._resolve_dotted(aliases.resolve(dotted))
            if hit:
                return hit
        # unique-method fallback: duck-typed call, but only one class in the
        # tree defines the method, so the target is unambiguous.  Generic
        # container/stdlib method names are excluded — ``pending.get(...)``
        # must not resolve to the one tree class that defines ``get``.
        if not attr.startswith("__") and attr not in _COMMON_METHODS:
            owners = self.method_owners.get(attr, [])
            if len(owners) == 1:
                return (owners[0].methods[attr],)
        return ()

    def _resolve_dotted(self, dotted: str) -> tuple[str, ...]:
        if dotted in self.functions:
            return (dotted,)
        head, _, tail = dotted.rpartition(".")
        # pkg.mod.Cls (or a bare, tree-unique class name) -> its constructor
        candidates = [c for c in self.classes.get(tail, [])
                      if not head
                      or f"{c.module.dotted_name()}.{c.name}" == dotted]
        if not head and len(candidates) != 1:
            candidates = []
        for c in candidates:
            key = c.methods.get("__init__")
            return (key,) if key is not None else ()
        # pkg.mod.Cls.method / Cls.method
        if head:
            grand, _, cls_name = head.rpartition(".")
            for c in self.classes.get(cls_name, []):
                if not grand or c.module.dotted_name() == grand:
                    key = c.methods.get(tail)
                    if key is not None:
                        return (key,)
        return ()

    # -- transitive summaries ----------------------------------------------
    def transitive_acquires(self) -> dict[str, frozenset[str]]:
        """For each function: every lock it may acquire, through calls."""
        if self._trans_acq is not None:
            return self._trans_acq
        acq = {key: {a.lock for a in fn.acquires}
               for key, fn in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for key, fn in self.functions.items():
                mine = acq[key]
                before = len(mine)
                for call in fn.calls:
                    for callee in call.callees:
                        mine |= acq.get(callee, set())
                if len(mine) != before:
                    changed = True
        self._trans_acq = {k: frozenset(v) for k, v in acq.items()}
        return self._trans_acq

    def transitive_blocking(self) -> dict[str, tuple[BlockSite, ...]]:
        """For each function: representative blocking ops it may reach."""
        if self._trans_block is not None:
            return self._trans_block
        block: dict[str, dict[str, BlockSite]] = {
            key: {b.desc: b for b in fn.blocks}
            for key, fn in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for key, fn in self.functions.items():
                mine = block[key]
                before = len(mine)
                for call in fn.calls:
                    for callee in call.callees:
                        for desc, site in block.get(callee, {}).items():
                            mine.setdefault(desc, site)
                if len(mine) != before:
                    changed = True
        self._trans_block = {
            k: tuple(sorted(v.values(), key=lambda b: b.desc))
            for k, v in block.items()
        }
        return self._trans_block

    # -- RP06: the lock-order graph ----------------------------------------
    def lock_graph(self) -> LockGraph:
        graph = LockGraph()
        trans = self.transitive_acquires()
        for fn in self.functions.values():
            for site in fn.acquires:
                graph.nodes.add(site.lock)
                for held in site.held_before:
                    graph.add(held, site.lock, EdgeWitness(
                        fn.module.path, site.line, fn.qual, "with"))
            for call in fn.calls:
                if not call.held:
                    continue
                reached: set[str] = set()
                for callee in call.callees:
                    reached |= trans.get(callee, frozenset())
                for lock in reached:
                    for held in call.held:
                        graph.add(held, lock, EdgeWitness(
                            fn.module.path, call.line, fn.qual,
                            f"call to {call.display}"))
        return graph

    # -- RP07: blocking reachable under a hot lock -------------------------
    def blocking_findings(self) -> Iterator[tuple[str, int, int, str]]:
        """(path, line, col, message) for every blocking-under-hot-lock."""
        trans = self.transitive_blocking()
        for fn in self.functions.values():
            if fn.qual in RP07_WAIT_ALLOWLIST or fn.key in RP07_WAIT_ALLOWLIST:
                continue
            for site in fn.blocks:
                hot = _hot(site.held)
                if hot:
                    yield (fn.module.path, site.line, site.col,
                           f"blocking {site.desc} while holding hot lock "
                           f"{', '.join(hot)}; move the blocking work outside "
                           "the lock (swap state under the lock, act after)")
            for call in fn.calls:
                hot = _hot(call.held)
                if not hot or call.also_block:
                    continue
                for callee in call.callees:
                    reached = trans.get(callee, ())
                    if not reached:
                        continue
                    first = reached[0]
                    where = (f"{Path(self.functions[callee].module.path).name}"
                             f":{first.line}")
                    yield (fn.module.path, call.line, call.col,
                           f"call to {call.display}() reaches blocking "
                           f"{first.desc} ({where}) while holding hot lock "
                           f"{', '.join(hot)}")
                    break

    # -- RP08: RNG seed-taint ----------------------------------------------
    def rng_findings(self) -> Iterator[tuple[str, int, int, str]]:
        """(path, line, col, message) for RNG args with no seed provenance."""
        for fn in self.functions.values():
            for site in fn.rng_sites:
                if not self._tainted(site.arg, fn, set()):
                    yield (fn.module.path, site.line, site.col,
                           f"{site.maker}() argument is not derived from a "
                           "seed parameter, seed/salt attribute, or literal "
                           "constant; thread the caller's seed through "
                           "(dataflow-checked, see RP08)")

    def _tainted(self, expr: ast.AST, fn: FnInfo,
                 stack: set[tuple[str, str]]) -> bool:
        if isinstance(expr, ast.Constant):
            return True
        if isinstance(expr, ast.Name):
            if _SEEDISH.search(expr.id):
                return True
            guard = (fn.key, expr.id)
            if guard in stack:
                return False
            stack.add(guard)
            try:
                for value in fn.assigns.get(expr.id, []):
                    if self._tainted(value, fn, stack):
                        return True
                mod_assigns = self._module_assigns.get(fn.module.path, {})
                for value in mod_assigns.get(expr.id, []):
                    if self._tainted(value, fn, stack):
                        return True
            finally:
                stack.discard(guard)
            return False
        if isinstance(expr, ast.Attribute):
            return bool(_SEEDISH.search(expr.attr)) \
                or self._tainted(expr.value, fn, stack)
        if isinstance(expr, ast.Subscript):
            sl = expr.slice
            if (isinstance(sl, ast.Constant) and isinstance(sl.value, str)
                    and _SEEDISH.search(sl.value)):
                return True
            return self._tainted(expr.value, fn, stack) \
                or self._tainted(sl, fn, stack)
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Attribute) \
                    and self._tainted(expr.func.value, fn, stack):
                return True  # method on a seed-derived object (.digest(), ...)
            for arg in expr.args:
                if self._tainted(arg, fn, stack):
                    return True
            for kw in expr.keywords:
                if self._tainted(kw.value, fn, stack):
                    return True
            # A zero-interesting-arg call can still return seed-derived data
            # (a helper returning self.seed); follow the resolved callee.
            aliases = self._aliases[fn.module.path]
            for callee_key in self._resolve_call(fn, aliases, expr):
                guard = (callee_key, "<return>")
                if guard in stack:
                    continue
                stack.add(guard)
                try:
                    callee = self.functions.get(callee_key)
                    if callee is not None and any(
                            self._tainted(r, callee, stack)
                            for r in callee.returns):
                        return True
                finally:
                    stack.discard(guard)
            return False
        if isinstance(expr, (ast.BinOp, ast.BoolOp, ast.UnaryOp, ast.Compare,
                             ast.IfExp, ast.Tuple, ast.List, ast.Set, ast.Dict,
                             ast.JoinedStr, ast.FormattedValue, ast.Starred)):
            return any(self._tainted(child, fn, stack)
                       for child in ast.iter_child_nodes(expr)
                       if isinstance(child, ast.expr))
        return False


# -- shared-analysis plumbing for the lint rules ---------------------------
def register(ctx: Context, module: Module) -> None:
    """Record a module for the whole-tree analysis built at finalize time."""
    bucket = ctx.bucket("FLOW")
    bucket.setdefault("modules", {})[module.path] = module


def analysis_of(ctx: Context) -> FlowAnalysis:
    """The (cached) FlowAnalysis over every registered module."""
    bucket = ctx.bucket("FLOW")
    analysis = bucket.get("analysis")
    if not isinstance(analysis, FlowAnalysis):
        modules = bucket.get("modules", {})
        assert isinstance(modules, dict)
        analysis = FlowAnalysis(list(modules.values()))
        bucket["analysis"] = analysis
    return analysis


def analyze_paths(paths: Sequence[str]) -> FlowAnalysis:
    """Build a FlowAnalysis straight from files/directories."""
    modules: list[Module] = []
    for path in _iter_py_files(paths):
        parsed = parse_module(path)
        if isinstance(parsed, Module):
            modules.append(parsed)
    return FlowAnalysis(modules)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.flow",
        description="Emit the interprocedural lock-order graph.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--format", choices=("dot", "json"), default="dot")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the lock-order graph has a cycle")
    args = parser.parse_args(argv)
    graph = analyze_paths(args.paths).lock_graph()
    if args.format == "json":
        print(json.dumps(graph.to_json(), indent=2, sort_keys=True))
    else:
        print(graph.to_dot())
    cycles = graph.cycles()
    if args.check and cycles:
        for cyc in cycles:
            print(f"lock-order cycle: {' -> '.join(cyc)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
