"""Seed-determinism regression suite for every optimizer.

Same seed -> same final ``history.fom`` trajectory, pinned for all five
baselines and DNN-Opt (serial and batched).  These tests freeze behaviour
across refactors of the evaluation path: any change that perturbs the RNG
stream or the evaluation order shows up here first.
"""

import numpy as np
import pytest

from repro.baselines import (
    BOwEI,
    DifferentialEvolution,
    GASPAD,
    RandomSearch,
    SimulatedAnnealing,
)
from repro.core import DNNOpt, EvalEngine
from repro.problems import ConstrainedSphere, Sphere

ALL_OPTIMIZERS = [
    ("Random", lambda p, b, s: RandomSearch(p, b, s)),
    ("DE", lambda p, b, s: DifferentialEvolution(p, b, s, pop_size=8)),
    ("SA", lambda p, b, s: SimulatedAnnealing(p, b, s)),
    ("BO-wEI", lambda p, b, s: BOwEI(p, b, s, n_init=8, pool_size=64,
                                     local_points=16)),
    ("GASPAD", lambda p, b, s: GASPAD(p, b, s, n_init=8, pop_size=6)),
    ("DNN-Opt", lambda p, b, s: DNNOpt(p, b, s, n_init=8, n_elite=5,
                                       critic_epochs=4, actor_epochs=4,
                                       critic_hidden=(16, 16),
                                       actor_hidden=(16, 16), max_pseudo=400)),
    ("DNN-Opt-batch3", lambda p, b, s: DNNOpt(p, b, s, n_init=8, n_elite=5,
                                              critic_epochs=4, actor_epochs=4,
                                              critic_hidden=(16, 16),
                                              actor_hidden=(16, 16),
                                              max_pseudo=400, batch_size=3)),
]


@pytest.mark.parametrize("name,factory", ALL_OPTIMIZERS, ids=[n for n, _ in ALL_OPTIMIZERS])
def test_same_seed_same_fom_trajectory(name, factory):
    h1 = factory(Sphere(3), 18, 21).run()
    h2 = factory(Sphere(3), 18, 21).run()
    np.testing.assert_array_equal(h1.fom, h2.fom)
    np.testing.assert_array_equal(h1.X, h2.X)
    np.testing.assert_array_equal(h1.fom_curve(), h2.fom_curve())


@pytest.mark.parametrize("name,factory", ALL_OPTIMIZERS, ids=[n for n, _ in ALL_OPTIMIZERS])
def test_different_seed_different_trajectory(name, factory):
    h1 = factory(Sphere(3), 18, 21).run()
    h2 = factory(Sphere(3), 18, 22).run()
    assert not np.array_equal(h1.X, h2.X)


@pytest.mark.parametrize("name,factory", ALL_OPTIMIZERS, ids=[n for n, _ in ALL_OPTIMIZERS])
def test_constrained_trajectory_reproducible(name, factory):
    h1 = factory(ConstrainedSphere(2), 15, 5).run()
    h2 = factory(ConstrainedSphere(2), 15, 5).run()
    np.testing.assert_array_equal(h1.fom, h2.fom)
    np.testing.assert_array_equal(h1.feasible, h2.feasible)


@pytest.mark.parametrize("name,factory", ALL_OPTIMIZERS[:5], ids=[n for n, _ in ALL_OPTIMIZERS[:5]])
def test_engine_backend_does_not_change_trajectory(name, factory):
    """Baselines run through a process-pool engine keep their exact trajectory."""
    serial = factory(Sphere(2), 15, 8).run()
    with EvalEngine("process", workers=2) as engine:
        optimizer = factory(Sphere(2), 15, 8)
        optimizer.engine = engine
        with_pool = optimizer.run()
    np.testing.assert_array_equal(serial.fom, with_pool.fom)
    np.testing.assert_array_equal(serial.X, with_pool.X)
