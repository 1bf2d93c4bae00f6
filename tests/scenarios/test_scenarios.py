"""Scenario subsystem: PVT corner fan-out, mismatch Monte Carlo, gating.

Load-bearing contracts pinned here:

* corner transforms apply at compile time through the ``circuit_transform``
  seam — no circuit class changes — and run exactly once per circuit;
* two corner variants of the same base problem *never* share engine
  cache/dedup/disk entries (distinct content fingerprints), while the same
  corner re-fingerprints identically in a separate interpreter;
* corner fan-out through ``EvalEngine.submit``/``gather`` is bit-identical
  across the serial, process and fleet backends, and every corner variant
  runs on the one warm process pool;
* seeded mismatch Monte Carlo is reproducible (same seed → same rows);
* adaptive-gating decisions derive only from told rows, so a checkpoint
  resume replays them exactly (bit-identical finished history).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.circuits import LDORegulator
from repro.core import EvalEngine, Study
from repro.core.fleet import FleetCoordinator
from repro.scenarios import (
    Corner,
    CornerProblem,
    CornerVariant,
    MonteCarloProblem,
    ScenarioSet,
    corner_transform,
    process_corner,
)
from repro.spice.netlist import circuit_transform


def ldo_problem():
    return LDORegulator().problem()


def nominal_x(problem):
    nominal = LDORegulator().nominal()
    return np.array([nominal[v.name] for v in problem.space.variables],
                    dtype=np.float64)


# ----------------------------------------------------------------------
# corner transforms at the compile seam
# ----------------------------------------------------------------------
def test_corner_transform_adjusts_models_and_supplies_once():
    corner = process_corner("ss_lo_hot", "ss", supply_scale=0.9, temp_c=125.0)
    circuit = LDORegulator().build(LDORegulator().nominal())
    nominal_models = {d.name: d.model for d in circuit.devices
                      if hasattr(getattr(d, "model", None), "polarity")}
    with circuit_transform(corner_transform(corner)):
        circuit.compile()
        circuit._compiled = None  # force a recompile, netlist unchanged
        circuit.compile()  # transform is sticky: applied exactly once

    assert circuit["VDD"].waveform.level == pytest.approx(1.8 * 0.9)
    assert circuit["VREF"].waveform.level == pytest.approx(0.9)  # not a supply
    for name, model in nominal_models.items():
        adjusted = circuit[name].model
        # ss: less drive; hot: mobility derating compounds it
        assert adjusted.kp < 0.9 * model.kp
        if model.polarity == "n":
            assert adjusted.vto < model.vto + 0.03  # tempco pulls back down
        expected = corner.model_params(model)
        assert adjusted.kp == pytest.approx(expected["kp"])
        assert adjusted.vto == pytest.approx(expected["vto"])


def test_nominal_corner_is_identity():
    assert Corner("nom").is_nominal
    assert not process_corner("ff", "ff").is_nominal
    assert not Corner("hot", temp_c=125.0).is_nominal
    model_like = type("M", (), {"polarity": "n", "kp": 2e-4, "vto": 0.4})()
    params = Corner("nom").model_params(model_like)
    assert params["kp"] == pytest.approx(2e-4)
    assert params["vto"] == pytest.approx(0.4)


def test_scenario_set_constructors():
    typical = ScenarioSet.typical()
    assert typical.names == ("nom", "ss_lo_hot", "ff_hi_cold", "fs_lo_cold")
    assert typical[0].is_nominal and not typical[1].is_nominal
    pvt = ScenarioSet.pvt()
    assert len(pvt) == 27
    assert pvt[0].is_nominal  # nominal moved first for gating
    with pytest.raises(ValueError):
        ScenarioSet((Corner("a"), Corner("a")))


def test_corner_rows_differ_from_nominal():
    problem = ldo_problem()
    x = nominal_x(problem)
    nominal_row = problem.evaluate(x)
    corner = ScenarioSet.typical()[1]  # ss, low supply, hot
    corner_row = CornerVariant(problem, corner).evaluate(x)
    assert corner_row.shape == nominal_row.shape
    assert not np.array_equal(corner_row, nominal_row)


def test_aggregate_is_oriented_worst_case_and_quantile():
    problem = ldo_problem()
    wrapper = CornerProblem(problem, [Corner("nom")])
    kinds = [spec.kind for spec in problem.specs]
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(5, 1 + len(kinds)))
    worst = wrapper._aggregate(rows)
    assert worst[0] == pytest.approx(rows[:, 0].max())  # objective: larger=worse
    for i, kind in enumerate(kinds):
        col = rows[:, 1 + i]
        assert worst[1 + i] == pytest.approx(
            col.min() if kind == "min" else col.max())
    median = CornerProblem(problem, [Corner("nom")],
                           aggregate=0.5)._aggregate(rows)
    assert median[0] == pytest.approx(np.quantile(rows[:, 0], 0.5))
    with pytest.raises(ValueError):
        CornerProblem(problem, [Corner("nom")], aggregate=1.5)
    with pytest.raises(ValueError):  # no nesting
        CornerProblem(wrapper, [Corner("nom")])


# ----------------------------------------------------------------------
# fingerprint regression: corners never alias in any cache tier
# ----------------------------------------------------------------------
def test_corner_variants_have_distinct_fingerprints():
    problem = ldo_problem()
    scenarios = ScenarioSet.typical()
    prints = {EvalEngine._fingerprint(CornerVariant(problem, corner))
              for corner in scenarios if not corner.is_nominal}
    prints.add(EvalEngine._fingerprint(problem))
    assert None not in prints
    assert len(prints) == len(scenarios)  # base + 3 corners, all distinct
    # MC samples and seeds are distinct identities too
    mc_prints = {EvalEngine._fingerprint(v)
                 for v in MonteCarloProblem(problem, n_samples=3).variants[1:]}
    mc_prints |= {EvalEngine._fingerprint(v) for v in
                  MonteCarloProblem(problem, n_samples=3, seed=1).variants[1:]}
    assert len(mc_prints) == 6


def test_two_corner_variants_never_share_cache_entries(tmp_path):
    problem = ldo_problem()
    x = nominal_x(problem).reshape(1, -1)
    a = CornerVariant(problem, process_corner("ss", "ss"))
    b = CornerVariant(problem, process_corner("ff", "ff"))
    with EvalEngine(cache_dir=str(tmp_path)) as engine:
        row_a = engine.evaluate_batch(a, x)
        row_b = engine.evaluate_batch(b, x)
        counters = engine.counters_snapshot()
        assert counters["n_sim_calls"] == 2  # same design, two sims — no aliasing
        assert counters["n_cache_hits"] == 0 and counters["n_disk_hits"] == 0
        assert not np.array_equal(row_a, row_b)
        # re-asking the same variant *does* hit the memory tier
        engine.evaluate_batch(a, x)
        assert engine.counters_snapshot()["n_cache_hits"] == 1
    # a fresh engine on the same disk store answers each under its own key
    with EvalEngine(cache_dir=str(tmp_path)) as engine:
        np.testing.assert_array_equal(engine.evaluate_batch(a, x), row_a)
        np.testing.assert_array_equal(engine.evaluate_batch(b, x), row_b)
        counters = engine.counters_snapshot()
        assert counters["n_disk_hits"] == 2
        assert counters["n_sim_calls"] == 0


def test_wrapper_fingerprint_stable_across_gate_state():
    problem = CornerProblem(ldo_problem(), ScenarioSet.typical(),
                            gate_margin=0.5, gate_warmup=2)
    before = EvalEngine._fingerprint(problem)
    x = nominal_x(problem).reshape(1, -1)
    problem.scenario_observe(x, np.zeros((1, 1 + problem.num_constraints)))
    assert EvalEngine._fingerprint(problem) == before  # runtime is stripped


_FINGERPRINT_CHILD = """
import sys
from repro.circuits import LDORegulator
from repro.core import EvalEngine
from repro.scenarios import CornerProblem, CornerVariant, ScenarioSet

problem = LDORegulator().problem()
scenarios = ScenarioSet.typical()
prints = [EvalEngine._fingerprint(CornerVariant(problem, c)).hex()
          for c in scenarios if not c.is_nominal]
prints.append(EvalEngine._fingerprint(
    CornerProblem(problem, scenarios, gate_margin=0.5)).hex())
print(":".join(prints))
"""


def _child_fingerprints():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.abspath(src) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _FINGERPRINT_CHILD],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1].split(":")


def test_corner_fingerprints_identical_across_processes():
    # Same corner → same content fingerprint in a genuinely separate
    # interpreter (the disk tier may answer it); distinct corners stay
    # distinct there too.
    child_a = _child_fingerprints()
    child_b = _child_fingerprints()
    assert child_a == child_b
    assert len(set(child_a)) == len(child_a)
    problem = ldo_problem()
    scenarios = ScenarioSet.typical()
    local = [EvalEngine._fingerprint(CornerVariant(problem, c)).hex()
             for c in scenarios if not c.is_nominal]
    local.append(EvalEngine._fingerprint(
        CornerProblem(problem, scenarios, gate_margin=0.5)).hex())
    assert child_a == local


# ----------------------------------------------------------------------
# engine fan-out: determinism across backends
# ----------------------------------------------------------------------
def make_corner_study(engine):
    problem = CornerProblem(ldo_problem(), ScenarioSet.typical(),
                            gate_margin=1.0, gate_warmup=2)
    return Study(RandomSearch(problem, 8, seed=3), engine=engine)


def test_corner_fanout_bit_identical_across_backends(two_local_servers):
    reference = make_corner_study(None).run()
    assert reference.n_evals == 8

    backends = {}
    with EvalEngine("process", workers=4) as engine:
        backends["process"] = make_corner_study(engine).run()
    hosts = [server.address for server in two_local_servers]
    with FleetCoordinator(hosts=hosts) as fleet:
        engine = fleet.engine("corner-study")
        backends["fleet"] = make_corner_study(engine).run()
        engine.close()

    for name, history in backends.items():
        np.testing.assert_array_equal(reference.X, history.X, err_msg=name)
        np.testing.assert_array_equal(reference.F, history.F, err_msg=name)


def test_corner_study_on_process_builds_one_pool():
    # Every corner variant is a different problem, and all of them share
    # the one warm pool: a multi-batch corner Study builds it exactly once,
    # and its rows are bitwise the serial rows.
    def run(engine):
        problem = CornerProblem(ldo_problem(), ScenarioSet.typical())
        return Study(RandomSearch(problem, 8, seed=4), engine=engine,
                     ask_size=4).run()

    serial = run(None)
    with EvalEngine("process", workers=2) as engine:
        pooled = run(engine)
        assert engine.n_pool_builds == 1
        assert engine.n_sim_calls == 8 * len(ScenarioSet.typical())
    assert pooled.X.tobytes() == serial.X.tobytes()
    assert pooled.F.tobytes() == serial.F.tobytes()


def test_folded_cascode_fleet_fanout_matches_serial(two_local_servers):
    # Acceptance pin: a 4-corner CornerProblem over the folded-cascode OTA
    # optimized on a 2-worker fleet produces a history bit-identical to
    # the serial backend.
    from repro.circuits import FoldedCascodeOTA

    def run(engine):
        problem = CornerProblem(FoldedCascodeOTA().problem(),
                                ScenarioSet.typical(),
                                gate_margin=1.0, gate_warmup=2)
        return Study(RandomSearch(problem, 6, seed=5), engine=engine).run()

    serial = run(None)
    hosts = [server.address for server in two_local_servers]
    with FleetCoordinator(hosts=hosts) as fleet:
        engine = fleet.engine("fcota-corners")
        fleet_history = run(engine)
        engine.close()
    np.testing.assert_array_equal(serial.X, fleet_history.X)
    np.testing.assert_array_equal(serial.F, fleet_history.F)


def test_latch_corner_dnnopt_process_backend_matches_serial():
    # A 3-corner DNN-Opt study at batch 4: each corner variant's engine
    # batch reaches the process pool's workers as one lock-step transient
    # batch, and the concurrent per-variant dispatches share (and rebuild)
    # the pool.  The history must be bit-identical to serial.
    from repro.circuits import StrongArmLatch
    from repro.core import DNNOpt

    def run(engine):
        corners = [Corner("nom"), process_corner("ss", "ss", supply_scale=0.9),
                   process_corner("ff", "ff", supply_scale=1.1)]
        problem = CornerProblem(StrongArmLatch().problem(), corners)
        opt = DNNOpt(problem, 8, 4, batch_size=4, n_init=4, engine=engine)
        return Study(opt).run()

    serial = run(None)
    with EvalEngine("process", workers=2) as engine:
        pooled = run(engine)
    assert pooled.n_evals == serial.n_evals == 8
    np.testing.assert_array_equal(serial.X, pooled.X)
    np.testing.assert_array_equal(serial.F, pooled.F)


def test_direct_evaluate_matches_engine_fanout():
    problem = CornerProblem(ldo_problem(), ScenarioSet.typical())
    x = nominal_x(problem)
    direct = problem.evaluate(x)  # no engine, no gating
    with EvalEngine() as engine:
        via_engine = engine.evaluate_batch(problem, x.reshape(1, -1))[0]
        rows = problem.variant_rows(engine, x)
    np.testing.assert_array_equal(direct, via_engine)
    assert rows.shape == (4, direct.shape[0])
    np.testing.assert_array_equal(problem._aggregate(rows), direct)


def test_gating_summary_and_sims_saved():
    problem = CornerProblem(ldo_problem(), ScenarioSet.typical(),
                            gate_margin=0.25, gate_warmup=4)
    with EvalEngine() as engine:
        history = Study(RandomSearch(problem, 12, seed=0),
                        engine=engine).run()
    stats = history.summary()["scenarios"]
    assert stats["corners"] == 4
    assert stats["designs"] == 12
    assert stats["fanned_out"] + stats["gated"] == 12
    assert stats["gated"] > 0  # a 0.25 margin gates some of 12 random designs
    assert stats["corner_sims"] == 3 * stats["fanned_out"]
    assert stats["corner_sims_saved"] == 3 * stats["gated"]
    assert stats["gate_margin"] == 0.25 and stats["gate_warmup"] == 4
    # engine sims: one nominal per design + the fanned corner sims
    assert history.engine_stats["misses"] == 12 + stats["corner_sims"]


def test_memo_answers_told_designs_without_resimulating():
    problem = CornerProblem(ldo_problem(), ScenarioSet.typical())
    x = nominal_x(problem).reshape(1, -1)
    with EvalEngine() as engine:
        row = engine.evaluate_batch(problem, x)
        problem.scenario_observe(x, row)
        again = engine.evaluate_batch(problem, x)
    np.testing.assert_array_equal(row, again)
    assert problem.scenario_stats()["memo_hits"] == 1
    assert problem.scenario_stats()["designs"] == 1  # decided once


# ----------------------------------------------------------------------
# Monte Carlo mismatch
# ----------------------------------------------------------------------
def test_monte_carlo_seeded_reproducibility():
    x = nominal_x(ldo_problem())
    rows_a = MonteCarloProblem(ldo_problem(), n_samples=4, seed=7).evaluate(x)
    rows_b = MonteCarloProblem(ldo_problem(), n_samples=4, seed=7).evaluate(x)
    np.testing.assert_array_equal(rows_a, rows_b)
    rows_c = MonteCarloProblem(ldo_problem(), n_samples=4, seed=8).evaluate(x)
    assert not np.array_equal(rows_a, rows_c)


def test_monte_carlo_samples_differ_and_yield_is_reported():
    problem = MonteCarloProblem(ldo_problem(), n_samples=4, seed=7)
    x = nominal_x(problem)
    with EvalEngine() as engine:
        rows = problem.variant_rows(engine, x)
        assert len({row.tobytes() for row in rows}) == 5  # base + 4 draws
        fraction = problem.feasible_fraction(engine, x)
        history = Study(RandomSearch(problem, 4, seed=1),
                        engine=engine).run()
    assert 0.0 <= fraction <= 1.0
    stats = history.summary()["scenarios"]
    assert stats["aggregate"] == 0.9
    assert 0.0 <= stats["sample_yield"] <= 1.0
    assert stats["designs"] == 4 and stats["fanned_out"] == 4


# ----------------------------------------------------------------------
# checkpoint resume replays gating decisions exactly
# ----------------------------------------------------------------------
def test_gating_checkpoint_resume_bit_identical(tmp_path):
    def make_opt():
        problem = CornerProblem(ldo_problem(), ScenarioSet.typical(),
                                gate_margin=0.25, gate_warmup=4)
        return RandomSearch(problem, 12, seed=0)

    reference = Study(make_opt()).run()
    ref_stats = reference.summary()["scenarios"]
    assert ref_stats["gated"] > 0  # the gate actually fires in this run

    path = tmp_path / "corner.ckpt.json"
    interrupted = Study(make_opt(), checkpoint_path=str(path),
                        checkpoint_every=1,
                        callbacks=[lambda s: s.history.n_evals >= 6
                                   and s.request_stop()])
    partial = interrupted.run()
    assert partial.n_evals < reference.n_evals

    # The fresh problem's gate state is empty; the resume re-tells the
    # recorded prefix (rebuilding memo/warmup/best-FoM), so post-resume
    # gating decisions — and therefore the rows — replay exactly.
    finished = Study.load(str(path), make_opt()).run()
    np.testing.assert_array_equal(reference.X, finished.X)
    np.testing.assert_array_equal(reference.F, finished.F)
