"""Unit tests for the interprocedural concurrency analysis
(``repro.tools.flow``): call resolution, lock summaries, the lock-order
graph, RP07 reachability, RP08 taint, and the CLI artifact formats."""
from __future__ import annotations

import json
from pathlib import Path

from repro.tools.flow import HOT_LOCK_ATTRS, FlowAnalysis, analyze_paths, main
from repro.tools.lint import Module, parse_module

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


def _analysis(tmp_path, text: str, name: str = "mod.py") -> FlowAnalysis:
    path = tmp_path / name
    path.write_text(text)
    parsed = parse_module(str(path))
    assert isinstance(parsed, Module), parsed
    return FlowAnalysis([parsed])


def _fn(analysis: FlowAnalysis, suffix: str):
    hits = [fn for key, fn in analysis.functions.items()
            if key.endswith(suffix)]
    assert len(hits) == 1, (suffix, sorted(analysis.functions))
    return hits[0]


# ------------------------------------------------------- call resolution

def test_resolves_self_method_calls(tmp_path):
    analysis = _analysis(tmp_path, """\
import threading

class A:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.helper()

    def helper(self):
        pass
""")
    fn = _fn(analysis, "A.outer")
    (call,) = fn.calls
    assert call.callees and call.callees[0].endswith("A.helper")
    assert call.held == frozenset({"A._lock"})


def test_resolves_through_attribute_type_from_init(tmp_path):
    analysis = _analysis(tmp_path, """\
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()

    def put_row(self, row):
        with self._lock:
            pass

class Owner:
    def __init__(self):
        self.store = Store()

    def save(self, row):
        self.store.put_row(row)
""")
    fn = _fn(analysis, "Owner.save")
    (call,) = fn.calls if fn.calls else (None,)
    acq = analysis.transitive_acquires()
    key = [k for k in analysis.functions if k.endswith("Owner.save")][0]
    assert acq[key] == frozenset({"Store._lock"})


def test_unique_method_fallback_skips_builtin_names(tmp_path):
    analysis = _analysis(tmp_path, """\
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            return None

    def fetch_unique(self, key):
        with self._lock:
            return None

class User:
    def use(self, mapping, other):
        mapping.get("k")        # dict-ish name: never resolved by fallback
        other.fetch_unique("k")  # unique name: resolved to Cache
""")
    acq = analysis.transitive_acquires()
    key = [k for k in analysis.functions if k.endswith("User.use")][0]
    assert acq[key] == frozenset({"Cache._lock"})


def test_holds_annotation_seeds_entry_locks(tmp_path):
    analysis = _analysis(tmp_path, """\
import threading

class A:
    def __init__(self):
        self._lock = threading.Lock()

    def _locked_helper(self):  # holds: _lock
        return 1
""")
    fn = _fn(analysis, "A._locked_helper")
    assert fn.entry_holds == frozenset({"A._lock"})


# ------------------------------------------------------- lock-order graph

def test_lock_graph_reports_cycle_with_both_witnesses():
    analysis = analyze_paths([str(FIXTURES / "rp06_bad.py")])
    graph = analysis.lock_graph()
    cycles = graph.cycles()
    assert len(cycles) == 1
    assert cycles[0][0] == cycles[0][-1]
    assert set(cycles[0]) == {"Ledger._lock", "Journal._lock"}
    assert ("Ledger._lock", "Journal._lock") in graph.edges
    assert ("Journal._lock", "Ledger._lock") in graph.edges


def test_lock_graph_dag_has_edges_but_no_cycle():
    graph = analyze_paths([str(FIXTURES / "rp06_ok.py")]).lock_graph()
    assert ("Outer._lock", "Inner._lock") in graph.edges
    assert graph.cycles() == []


def test_edge_witness_points_at_the_acquisition_site():
    graph = analyze_paths([str(FIXTURES / "rp06_ok.py")]).lock_graph()
    witness = graph.edges[("Outer._lock", "Inner._lock")]
    assert witness.path.endswith("rp06_ok.py")
    assert witness.line > 0
    assert witness.via.startswith("call to")


def test_json_artifact_shape():
    graph = analyze_paths([str(FIXTURES / "rp06_bad.py")]).lock_graph()
    payload = graph.to_json()
    assert payload["version"] == 1
    assert set(payload) == {"version", "nodes", "edges", "cycles"}
    assert payload["cycles"]  # the AB/BA cycle
    for edge in payload["edges"]:
        assert set(edge) == {"src", "dst", "path", "line", "func", "via"}


def test_dot_artifact_marks_hot_locks_and_cycles():
    dot = analyze_paths([str(FIXTURES / "rp06_bad.py")]).lock_graph().to_dot()
    assert dot.startswith("digraph lock_order")
    assert "#ffe0e0" in dot       # _lock is a hot attr, filled red
    assert "// CYCLE:" in dot


# ---------------------------------------------------- RP07 reachability

def test_blocking_findings_direct_and_transitive():
    analysis = analyze_paths([str(FIXTURES / "rp07_bad.py")])
    findings = list(analysis.blocking_findings())
    msgs = [m for (_, _, _, m) in findings]
    assert len(findings) == 3
    assert any("time.sleep" in m for m in msgs)
    assert any("reaches blocking subprocess.run" in m for m in msgs)
    assert any("wait on a different object" in m for m in msgs)


def test_sanctioned_wait_and_swap_then_act_are_clean():
    analysis = analyze_paths([str(FIXTURES / "rp07_ok.py")])
    assert list(analysis.blocking_findings()) == []


def test_wait_on_held_condition_releases_it(tmp_path):
    analysis = _analysis(tmp_path, """\
import threading, time

class Q:
    def __init__(self):
        self._cond = threading.Condition()

    def pop(self):
        with self._cond:
            self._cond.wait(0.1)
""")
    assert list(analysis.blocking_findings()) == []


def test_coarse_serialization_locks_are_not_hot(tmp_path):
    analysis = _analysis(tmp_path, """\
import threading, time

class Worker:
    def __init__(self):
        self._eval_lock = threading.Lock()

    def serve(self):
        with self._eval_lock:
            time.sleep(0.1)   # by-design serialization, not a hot lock
""")
    assert list(analysis.blocking_findings()) == []
    assert "_eval_lock" not in HOT_LOCK_ATTRS


# ------------------------------------------------------------ RP08 taint

def test_rng_taint_bad_and_ok_fixtures():
    bad = analyze_paths([str(FIXTURES / "rp08_bad.py")])
    assert len(list(bad.rng_findings())) == 3
    ok = analyze_paths([str(FIXTURES / "rp08_ok.py")])
    assert list(ok.rng_findings()) == []


def test_taint_flows_through_assignments_and_helpers(tmp_path):
    analysis = _analysis(tmp_path, """\
import numpy as np

def seeded(seed):
    mixed = seed * 7 + 1
    return np.random.default_rng(mixed)

def helper_of_seed(seed):
    return seed + 1

def via_helper(seed):
    return np.random.default_rng(helper_of_seed(seed))

def unseeded(counter):
    derived = counter * counter
    return np.random.default_rng(derived)
""")
    findings = list(analysis.rng_findings())
    assert len(findings) == 1
    (path, line, _, _) = findings[0]
    assert "default_rng(derived)" in Path(path).read_text().splitlines()[line - 1]


# ------------------------------------------------------------------- CLI

def test_cli_check_fails_on_cycle_and_passes_on_dag(capsys):
    assert main([str(FIXTURES / "rp06_bad.py"), "--check"]) == 1
    assert "lock-order cycle" in capsys.readouterr().err
    assert main([str(FIXTURES / "rp06_ok.py"), "--check"]) == 0
    capsys.readouterr()


def test_cli_json_format(capsys):
    assert main([str(FIXTURES / "rp06_ok.py"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cycles"] == []
    assert any(e["src"] == "Outer._lock" for e in payload["edges"])


# ------------------------------------------------------------- src gate

def test_src_lock_graph_is_acyclic_with_expected_edges():
    graph = analyze_paths([str(SRC)]).lock_graph()
    assert graph.cycles() == []
    # Load-bearing orderings the runtime sanitizer validates against;
    # adding an edge here means re-checking the global acquisition order.
    for edge in [
        ("EvalEngine._state_lock", "DiskCache._lock"),
        ("EvalWorkerServer._eval_lock", "EvalEngine._state_lock"),
        ("FleetCoordinator._cond", "_DispatchState._lock"),
    ]:
        assert edge in graph.edges, edge
