"""E8 — critic-accuracy ablation (the paper's Bayesmark study, Section II-B).

The paper reports that the 2d-input critic trained on pseudo-samples is
significantly more accurate than a d-input network trained on the raw
archive.  We reproduce the study on the synthetic suite: both models are
asked to predict f(x + dx) for fresh displacements; the d-input model can
only evaluate at the anchor x, which is exactly the handicap Eq. 2 removes.
"""

import numpy as np

from repro.core import Critic, generate_pseudo_samples
from repro.experiments import render_table
from repro.nn import MLP, StandardScaler
from repro.problems import Ackley, Hartmann6, Rosenbrock, Sphere

PROBLEMS = {"sphere": Sphere, "rosenbrock": Rosenbrock,
            "ackley": Ackley, "hartmann6": Hartmann6}
N_ARCHIVE = 40
N_TEST = 200


def _fit_plain_net(Xn, Yn, rng):
    """d-input baseline: same capacity, raw samples only, 200 full-batch Adam steps."""
    net = MLP(Xn.shape[1], Yn.shape[1], (64, 64), rng=rng)
    scaler = StandardScaler()
    targets = scaler.fit_transform(Yn)
    net.fit_mse(Xn, targets, lr=1e-3, epochs=200, batch_size=len(Xn), rng=rng)
    return lambda X: scaler.inverse_transform(net.predict(X))


def _rmse_pair(problem_cls, seed):
    problem = problem_cls() if problem_cls is not Hartmann6 else Hartmann6()
    rng = np.random.default_rng(seed)
    space = problem.space
    X = space.sample(rng, N_ARCHIVE)
    Xn = space.normalize(X)
    Yn = problem.normalize(problem.evaluate_batch(X))

    critic = Critic(space.dim, Yn.shape[1], epochs=40, rng=rng)
    inputs, targets = generate_pseudo_samples(Xn, Yn, rng=rng, max_pairs=4000)
    critic.fit(inputs, targets)
    plain = _fit_plain_net(Xn, Yn, rng)

    anchors = space.normalize(space.sample(rng, N_TEST))
    moves = rng.uniform(-0.15, 0.15, size=anchors.shape)
    displaced = np.clip(anchors + moves, 0.0, 1.0)
    truth = problem.normalize(problem.evaluate_batch(space.denormalize(displaced)))

    rmse_critic = float(np.sqrt(np.mean(
        (critic.predict(anchors, displaced - anchors) - truth) ** 2)))
    # The d-input baseline is queried directly at the displaced point; the
    # critic's edge comes from the N^2 pseudo-sample augmentation (Eq. 2),
    # not from hiding information from the baseline.
    rmse_plain = float(np.sqrt(np.mean((plain(displaced) - truth) ** 2)))
    return rmse_critic, rmse_plain


def run_ablation():
    rows = []
    for name, cls in PROBLEMS.items():
        pairs = [_rmse_pair(cls, seed=seed) for seed in (0, 1)]
        rmse_critic = float(np.mean([p[0] for p in pairs]))
        rmse_plain = float(np.mean([p[1] for p in pairs]))
        rows.append((name, rmse_critic, rmse_plain, rmse_plain / max(rmse_critic, 1e-12)))
    return rows


def test_bench_critic_ablation(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print("\n" + render_table(
        ["problem", "2d critic RMSE", "d-input RMSE", "plain/critic ratio"],
        rows, title="Critic ablation: pseudo-samples + (x, dx) input "
                    "vs plain d-input network (see EXPERIMENTS.md E8)"))
    # Reproduction finding: on smooth low-d synthetics the two are comparable
    # (the paper's Bayesmark advantage does not clearly reproduce here); the
    # critic must at least stay in the same accuracy class.
    comparable = sum(1 for _, rc, rp, _ in rows if rc <= 1.5 * rp)
    assert comparable >= 3, "the 2d critic must be competitive with the d-input net"
