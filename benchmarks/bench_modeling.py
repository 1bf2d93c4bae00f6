"""Modeling-layer benchmark: the fused critic trainer vs an unfused per-layer reference.

Times DNN-Opt's dominant modeling step, ``Critic.fit`` at the 8000
pseudo-sample cap for 20 epochs (folded-cascode sized: 20 design variables,
so a 40-input critic, and 6 normalized performance outputs), two ways on the
same data and initial weights:

* ``reference``: the same arithmetic written out one layer at a time in
  plain NumPy (forward, MSE gradient, backward) with ``Adam.step`` per
  minibatch, on float32 copies of the weights and data;
* ``fused``: ``Critic.fit`` itself, i.e. ``MLP.fit_mse`` (fused forward,
  fused VJP, one flat Adam update per minibatch, in float32).

Both must end with bit-identical weights and loss; the script fails if they
do not.

It also times one whole DNN-Opt modeling iteration (pseudo-samples, critic,
actor and Eq. 8 selection: one ``DNNOpt.ask``) on the folded-cascode problem
with a 200-row archive told beforehand.  The archive's rows are a seeded
smooth perturbation of one simulated nominal measurement, so the iteration
trains on data of realistic scale without simulating 200 designs; its cost
does not depend on the values.  That time is reported, not guarded.

    PYTHONPATH=src python benchmarks/bench_modeling.py            # full
    PYTHONPATH=src python benchmarks/bench_modeling.py --quick    # CI smoke

Results are written to ``BENCH_modeling.json`` (override with ``--out``).
``--check BASELINE.json`` turns the run into a regression gate: it fails
when the measured fused-vs-reference *speedup ratio* drops more than 40% below
the committed baseline's.  Both paths run on one host in one process, so
the ratio is machine-portable where absolute seconds are not.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.circuits import FoldedCascodeOTA
from repro.core import Critic, DNNOpt, generate_pseudo_samples
from repro.nn import Adam

#: fraction of the baseline speedup the measured speedup must retain.
REGRESSION_FLOOR = 0.6

DIM, OUTPUTS, ARCHIVE, ROWS, SEED = 20, 6, 90, 8000, 0
ITERATION_ARCHIVE = 200


def training_set() -> tuple[np.ndarray, np.ndarray]:
    """8000 pseudo-samples from a seeded 90-row archive of a smooth toy map."""
    rng = np.random.default_rng(SEED)
    X = rng.uniform(size=(ARCHIVE, DIM))
    mix = rng.normal(size=(DIM, OUTPUTS))
    Y = np.tanh((X - 0.5) @ mix) + 0.1 * np.sum((X - 0.5) ** 2, axis=1, keepdims=True)
    return generate_pseudo_samples(X, Y, rng=rng, max_pairs=ROWS)


def fresh_critic() -> Critic:
    return Critic(DIM, OUTPUTS, rng=np.random.default_rng(SEED + 1))


def reference_fit(critic: Critic, inputs: np.ndarray, targets: np.ndarray) -> float:
    """The same float32 training as ``Critic.fit``, one layer at a time.

    The critic's hidden layers are ReLU and its output is linear.
    """
    scaled = critic.target_scaler.fit_transform(targets).astype(np.float32)
    inputs = inputs.astype(np.float32)
    params = critic.net.parameters()
    for p in params:
        p.data = p.data.astype(np.float32)
    optimizer = Adam(params, lr=critic.lr)
    depth = len(params) // 2
    n = len(inputs)
    batch = min(critic.batch_size, n)
    last_loss = np.inf
    for _ in range(critic.epochs):
        order = critic.rng.permutation(n)
        losses = []
        for start in range(0, n, batch):
            rows = order[start:start + batch]
            layers = [inputs[rows]]  # each layer's input, then the output
            for i in range(depth):
                z = layers[i] @ params[2 * i].data + params[2 * i + 1].data
                layers.append(z if i == depth - 1 else np.maximum(z, 0.0))
            diff = layers[-1] - scaled[rows]
            scale = 1.0 / diff.size
            losses.append(float((diff * diff).sum() * scale))
            grad = scale * diff + scale * diff
            for i in reversed(range(depth)):
                if i < depth - 1:
                    grad = grad * (layers[i + 1] > 0.0)
                params[2 * i].grad = layers[i].T @ grad
                params[2 * i + 1].grad = grad.sum(axis=0)
                grad = grad @ params[2 * i].data.T
            optimizer.step()
        last_loss = float(np.mean(losses))
    return last_loss


def time_fit(fit, inputs: np.ndarray, targets: np.ndarray, reps: int):
    """Best-of-``reps`` seconds for ``fit`` on a fresh critic, plus its result."""
    seconds = []
    for _ in range(reps):
        critic = fresh_critic()
        t0 = perf_counter()
        loss = fit(critic, inputs, targets)
        seconds.append(perf_counter() - t0)
    return min(seconds), loss, [p.data for p in critic.net.parameters()]


def iteration_archive() -> tuple[object, np.ndarray, np.ndarray]:
    """The folded-cascode problem and a seeded 200-row archive ``(X, F)``."""
    circuit = FoldedCascodeOTA()
    problem = circuit.problem()
    nominal = problem.evaluate(np.array([circuit.nominal()[n] for n in problem.space.names]))
    rng = np.random.default_rng(SEED)
    X = problem.space.sample_lhs(rng, ITERATION_ARCHIVE)
    mix = rng.normal(size=(problem.dim, len(nominal)))
    F = nominal * (1.0 + 0.1 * np.tanh((problem.space.normalize(X) - 0.5) @ mix))
    return problem, X, F


def time_iteration(reps: int) -> float:
    """Best-of-``reps`` seconds for one ``DNNOpt.ask`` after the archive."""
    problem, X, F = iteration_archive()
    seconds = []
    for _ in range(reps):
        opt = DNNOpt(problem, ITERATION_ARCHIVE + 1, SEED)
        opt.tell(X, F)
        t0 = perf_counter()
        opt.ask()
        seconds.append(perf_counter() - t0)
    return min(seconds)


def run(quick: bool) -> dict:
    reps = 2 if quick else 5
    inputs, targets = training_set()
    print(f"critic fit, {len(inputs)} rows x {fresh_critic().epochs} epochs "
          f"({reps} reps/path)...", flush=True)
    reference_s, reference_loss, reference_weights = time_fit(reference_fit, inputs,
                                                              targets, reps)
    fused_s, fused_loss, fused_weights = time_fit(Critic.fit, inputs, targets, reps)
    identical = reference_loss == fused_loss and all(
        np.array_equal(a, b) for a, b in zip(reference_weights, fused_weights))
    print(f"DNN-Opt modeling iteration, folded-cascode, {ITERATION_ARCHIVE}-row archive "
          f"({reps} reps)...", flush=True)
    iteration_s = time_iteration(reps)
    return {
        "benchmark": "bench_modeling",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "metric_note": ("'speedup' (fused vs per-layer reference critic fit on one "
                        "host) is the machine-portable guarded metric; absolute "
                        "seconds are host-dependent."),
        "critic_fit": {
            "rows": len(inputs),
            "epochs": fresh_critic().epochs,
            "reps": reps,
            "reference_s": reference_s,
            "fused_s": fused_s,
            "final_loss": fused_loss,
        },
        "bit_identical": identical,
        "speedup": reference_s / fused_s,
        "modeling_iteration": {
            "problem": "folded_cascode",
            "archive_rows": ITERATION_ARCHIVE,
            "reps": reps,
            "seconds": iteration_s,
        },
    }


def report(results: dict) -> None:
    fit = results["critic_fit"]
    print(f"  reference: {fit['reference_s']:.3f} s")
    print(f"  fused    : {fit['fused_s']:.3f} s")
    print(f"  speedup: {results['speedup']:.2f}x   bit-identical: {results['bit_identical']}")
    print(f"  modeling iteration: {results['modeling_iteration']['seconds']:.3f} s")


def check_against(results: dict, baseline_path: Path) -> int:
    base = json.loads(baseline_path.read_text())["speedup"]
    floor = REGRESSION_FLOOR * base
    measured = results["speedup"]
    verdict = "ok" if measured >= floor else "REGRESSION"
    print(f"check critic_fit: speedup {measured:.2f}x vs baseline {base:.2f}x "
          f"(floor {floor:.2f}x) -> {verdict}")
    return int(measured < floor)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer reps for the CI perf smoke")
    parser.add_argument("--out", default="BENCH_modeling.json",
                        help="where to write the results JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail if the speedup regresses >40%% vs this "
                             "committed baseline JSON")
    args = parser.parse_args(argv)

    results = run(args.quick)
    report(results)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    if not results["bit_identical"]:
        print("fused and reference critic training diverged", file=sys.stderr)
        return 1
    if args.check and check_against(results, Path(args.check)):
        print(f"perf regression vs {args.check}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
