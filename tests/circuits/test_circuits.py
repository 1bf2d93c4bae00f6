"""Benchmark circuits: nominal measurements land in plausible ranges and
every problem adapter is complete and robust."""

import numpy as np
import pytest

from repro.circuits import (
    CTLE,
    CircuitSizingProblem,
    FoldedCascodeOTA,
    InverterChain,
    LDORegulator,
    LevelShifter,
    StrongArmLatch,
)
from repro.spice import profile

ALL_CIRCUITS = [FoldedCascodeOTA, StrongArmLatch, InverterChain, LevelShifter,
                LDORegulator, CTLE]


@pytest.fixture(scope="module")
def nominal_measurements():
    """Measure every circuit once at nominal (shared across tests)."""
    out = {}
    for cls in ALL_CIRCUITS:
        circuit = cls()
        out[cls.__name__] = (circuit, circuit.measure(circuit.nominal()))
    return out


@pytest.mark.parametrize("cls", ALL_CIRCUITS)
def test_measure_covers_all_metrics(cls, nominal_measurements):
    circuit, result = nominal_measurements[cls.__name__]
    problem = circuit.problem()
    for metric in problem.metric_names:
        assert metric in result, f"{cls.__name__} missing {metric}"
        assert np.isfinite(result[metric])


@pytest.mark.parametrize("cls", ALL_CIRCUITS)
def test_problem_adapter_evaluates(cls, nominal_measurements):
    circuit, result = nominal_measurements[cls.__name__]
    problem = circuit.problem()
    x = np.array([circuit.nominal()[name] for name in problem.space.names])
    row = problem.evaluate(x)
    assert row.shape == (1 + problem.num_constraints,)
    assert row[0] == pytest.approx(result[problem.objective.name], rel=1e-6)


@pytest.mark.parametrize("cls", ALL_CIRCUITS)
def test_parameter_table_matches_space(cls):
    circuit = cls()
    table = circuit.parameter_table()
    assert len(table) == circuit.space().dim


def test_folded_cascode_paper_structure():
    """Table I: 20 variables; Eq. 9: 29 constraints."""
    ota = FoldedCascodeOTA()
    assert ota.space().dim == 20
    assert len(ota.specs()) == 29
    sat_specs = [s for s in ota.specs() if s.name.startswith("satmargin")]
    assert len(sat_specs) == 20


def test_folded_cascode_nominal_is_a_real_amplifier(nominal_measurements):
    _, result = nominal_measurements["FoldedCascodeOTA"]
    assert result["dc_gain_db"] > 60.0
    assert result["ugf_hz"] > 10e6
    assert result["cmrr_db"] > 60.0
    assert result["psrr_db"] > 60.0
    assert 0.1e-3 < result["power_w"] < 10e-3
    assert result["static_error_pct"] < 1.0
    assert 0 < result["output_noise_vrms"] < 10e-3


def test_strongarm_paper_structure():
    """Table III: 13 variables; Eq. 10: 10 constraints."""
    latch = StrongArmLatch()
    assert latch.space().dim == 13
    assert len(latch.specs()) == 10


def test_strongarm_nominal_regenerates(nominal_measurements):
    _, result = nominal_measurements["StrongArmLatch"]
    assert result["diff_set_v"] > 1.15          # full regeneration
    assert result["set_delay_s"] < 5e-9
    assert result["diff_reset_v"] < 1e-6        # clean reset
    assert 1e-6 < result["power_w"] < 100e-6


def test_strongarm_decision_follows_input_polarity():
    latch = StrongArmLatch(vdiff=-10e-3)  # flip the input
    tran_spec = latch.measure(latch.nominal())
    assert tran_spec["diff_set_v"] > 1.15  # still regenerates fully


def test_strongarm_transient_newton_iterations_per_solve():
    """Each trapezoidal step starts Newton from a predicted solution, so the
    testbenches (operating point and transient) of eight seeded random latch
    designs average at most 2.2 Newton iterations per solve.  Starting every
    step from the previous solution takes 2.45 (the nominal design alone
    reads 1.83 against 1.62, too close to separate)."""
    latch = StrongArmLatch()
    space = latch.problem().space
    designs = [space.as_dict(space.round(x))
               for x in space.sample(np.random.default_rng(0), 8)]
    before = profile.snapshot()
    latch.simulate_batch(designs)
    counts = profile.delta(before)
    assert counts["newton_iterations"] / counts["newton_solves"] <= 2.2


def _witness_row(circuit):
    problem = circuit.problem()
    x = np.array([circuit.witness()[name] for name in problem.space.names])
    return problem, problem.evaluate(x)


@pytest.mark.parametrize("cls", [FoldedCascodeOTA, StrongArmLatch])
def test_paper_circuit_witness_is_feasible(cls):
    problem, row = _witness_row(cls())
    assert problem.is_feasible(row[None])[0]


def test_folded_cascode_witness_settling_across_time_steps():
    """The witness settles in 79.0 ns at the default 1.5 ns step and stays
    feasible at a ten times finer step."""
    problem, row = _witness_row(FoldedCascodeOTA())
    settling = row[problem.metric_names.index("settling_time_s")]
    assert settling == pytest.approx(79.0e-9, rel=0.01)
    problem, row = _witness_row(FoldedCascodeOTA(tran_step=0.15e-9))
    assert problem.is_feasible(row[None])[0]


def test_inverter_chain_has_8_variables(nominal_measurements):
    circuit, result = nominal_measurements["InverterChain"]
    assert circuit.space().dim == 8
    assert 5e-12 < result["delay_rise_s"] < 100e-12


def test_level_shifter_translates_levels(nominal_measurements):
    _, result = nominal_measurements["LevelShifter"]
    assert result["output_high_v"] > 1.7
    assert result["output_low_v"] < 0.05
    assert result["static_current_a"] < 1e-6


def test_ldo_regulates(nominal_measurements):
    _, result = nominal_measurements["LDORegulator"]
    assert result["vout_error_v"] < 30e-3
    assert result["dc_gain_db"] > 40.0
    assert result["psrr_db"] > 30.0


def test_ctle_equalizes(nominal_measurements):
    _, result = nominal_measurements["CTLE"]
    assert result["peaking_db"] > 3.0
    assert result["fpeak_hz"] > 1e9
    assert result["bw_3db_hz"] > result["fpeak_hz"]


def test_failure_on_convergence_is_penalized():
    """A pathological sizing must yield the penalty row, not an exception."""
    ota = FoldedCascodeOTA()
    problem = ota.problem()
    x = problem.space.lower.copy()  # minimum everything: likely broken amp
    row = problem.evaluate(x)
    assert np.all(np.isfinite(row))


@pytest.mark.parametrize("cls", ALL_CIRCUITS)
def test_bound_extremes_give_finite_or_failure_rows(cls):
    """Every in-bounds design, however extreme, yields a finite row or the
    documented failure row: the all-lower and all-upper corners, two seeded
    random vertices and two seeded random interior designs, as one batch."""
    problem = cls().problem()
    space = problem.space
    rng = np.random.default_rng(ALL_CIRCUITS.index(cls))
    vertices = np.where(rng.random((2, space.dim)) < 0.5, space.lower, space.upper)
    X = np.vstack([space.lower, space.upper, vertices, space.sample(rng, 2)])
    rows = problem.evaluate_batch(X)
    assert rows.shape == (len(X), 1 + problem.num_constraints)
    # A failed simulation comes back as failure_vector(), which is finite.
    assert np.isfinite(problem.failure_vector()).all()
    assert np.isfinite(rows).all()
    # The two bound corners are bad designs, not failed simulations: a change
    # to the simulator's numerics must not turn either into a failure row.
    failure = problem.failure_vector().tobytes()
    assert rows[0].tobytes() != failure and rows[1].tobytes() != failure


def test_circuit_problem_is_deterministic():
    problem = CTLE().problem()
    x = np.array([CTLE().nominal()[n] for n in problem.space.names])
    r1 = problem.evaluate(x)
    r2 = problem.evaluate(x)
    np.testing.assert_allclose(r1, r2)
