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

It times a warm fine-tune the same two ways: ``critic_epochs //
critic_refresh`` epochs (4 at the defaults) from the weights of a fresh fit,
which is what 4 of every 5 DNN-Opt model fits are.  Both fits run on one
OpenBLAS thread, as they do inside an optimizer's modeling block.  Each pair
must end with bit-identical weights and loss; the script fails if either
does not.

It also times one critic refresh cycle of whole DNN-Opt modeling iterations
(pseudo-samples, critic, actor and Eq. 8 selection: ``DNNOpt.ask`` then
``tell``) on the folded-cascode problem with a 200-row archive told
beforehand: ``critic_refresh`` asks at the default setting (one fresh critic
fit, then warm fine-tunes) against the same number of asks with
``critic_refresh=1`` (a fresh critic every ask, the paper's Algorithm 1).
The archive's rows, and the rows told after each ask, are a seeded smooth
perturbation of one simulated nominal measurement, so the iterations train
on data of realistic scale without simulating 200 designs; their cost does
not depend on the values.  The ratio of the two mean iteration times is
guarded; the default cycle's mean is also reported against the 0.83 s
per-iteration anchor measured before the fused kernel.

Last, it runs ``run_trials`` on two small folded-cascode DNN-Opt trials
(real simulations) at ``workers=1`` and ``workers=2``.  Forked trial
workers must run OpenBLAS on one thread each; when they did not, the two
workers' BLAS threads fought over the CPUs and ``workers=2`` ran at 0.29x
of serial (60-sim trials).  The workers=1-vs-2 ratio is guarded, and the
script fails unless both runs' histories hash the same.

    PYTHONPATH=src python benchmarks/bench_modeling.py            # full
    PYTHONPATH=src python benchmarks/bench_modeling.py --quick    # CI smoke

Results are written to ``BENCH_modeling.json`` (override with ``--out``).
``--check BASELINE.json`` turns the run into a regression gate: it fails
when the measured fused-vs-reference *speedup ratio* of the fresh or the
warm fit, the refresh cycle's fresh-vs-default mean iteration ratio, or the
trials' serial-vs-parallel ratio drops below its floor: 60% of the
committed baseline's, 70% for the trials ratio.  Both sides of each
ratio run on one host in one process, so the ratios are machine-portable
where absolute seconds are not.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.circuits import FoldedCascodeOTA
from repro.core import Critic, DNNOpt, generate_pseudo_samples
from repro.core.blas import one_blas_thread
from repro.experiments import run_trials
from repro.nn import Adam

#: fraction of the baseline speedup the measured speedup must retain.
REGRESSION_FLOOR = 0.6

DIM, OUTPUTS, ARCHIVE, ROWS, SEED = 20, 6, 90, 8000, 0
ITERATION_ARCHIVE = 200
#: per-iteration seconds of a 200-row modeling iteration before the fused kernel
ANCHOR_ITERATION_S = 0.83
#: the run_trials case: trials, simulations and initial samples per trial
TRIALS, TRIAL_BUDGET, TRIAL_INIT = 2, 36, 16
#: fraction of its baseline the run_trials ratio must retain.  Tighter than
#: REGRESSION_FLOOR: with OpenBLAS threads left unbounded in the trial
#: workers the ratio read 0.8-1.15x against 1.4-2.0x on a 2-vCPU host, and a
#: 0.6 floor would pass most of those.
TRIALS_FLOOR = 0.7


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


def warm_epochs() -> int:
    """Epochs of a DNN-Opt fine-tune at the defaults, as ``DNNOpt`` computes them."""
    defaults = inspect.signature(DNNOpt).parameters
    return max(1, defaults["critic_epochs"].default // defaults["critic_refresh"].default)


def warm_reference_fit(critic: Critic, inputs: np.ndarray, targets: np.ndarray) -> float:
    critic.epochs = warm_epochs()
    return reference_fit(critic, inputs, targets)


def warm_fused_fit(critic: Critic, inputs: np.ndarray, targets: np.ndarray) -> float:
    return critic.fit(inputs, targets, epochs=warm_epochs())


def time_fit(fit, inputs: np.ndarray, targets: np.ndarray, reps: int, *,
             warm: bool = False):
    """Best-of-``reps`` seconds for ``fit`` on a fresh critic (after an
    untimed fresh ``Critic.fit`` when ``warm``), plus its result."""
    seconds = []
    for _ in range(reps):
        critic = fresh_critic()
        with one_blas_thread():
            if warm:
                critic.fit(inputs, targets)
            t0 = perf_counter()
            loss = fit(critic, inputs, targets)
            seconds.append(perf_counter() - t0)
    return min(seconds), loss, [p.data for p in critic.net.parameters()]


def compare_fits(reference, fused, inputs: np.ndarray, targets: np.ndarray, reps: int,
                 epochs: int, *, warm: bool = False) -> dict:
    """Time ``reference`` against ``fused`` and check they end bit-identical."""
    reference_s, reference_loss, reference_weights = time_fit(
        reference, inputs, targets, reps, warm=warm)
    fused_s, fused_loss, fused_weights = time_fit(fused, inputs, targets, reps, warm=warm)
    return {
        "rows": len(inputs),
        "epochs": epochs,
        "reps": reps,
        "reference_s": reference_s,
        "fused_s": fused_s,
        "final_loss": fused_loss,
        "bit_identical": reference_loss == fused_loss and all(
            np.array_equal(a, b) for a, b in zip(reference_weights, fused_weights)),
        "speedup": reference_s / fused_s,
    }


def iteration_archive():
    """The folded-cascode problem, a seeded 200-row archive ``X`` and the
    smooth map ``rows(X)`` that stands in for the simulator."""
    circuit = FoldedCascodeOTA()
    problem = circuit.problem()
    nominal = problem.evaluate(np.array([circuit.nominal()[n] for n in problem.space.names]))
    rng = np.random.default_rng(SEED)
    X = problem.space.sample_lhs(rng, ITERATION_ARCHIVE)
    mix = rng.normal(size=(problem.dim, len(nominal)))

    def rows(X: np.ndarray) -> np.ndarray:
        return nominal * (1.0 + 0.1 * np.tanh((problem.space.normalize(X) - 0.5) @ mix))

    return problem, X, rows


def time_cycle(problem, X, rows, refresh: int, iterations: int) -> float:
    """Mean seconds per ``DNNOpt.ask`` over ``iterations`` ask/tell rounds
    after the archive, with ``critic_refresh=refresh``."""
    opt = DNNOpt(problem, ITERATION_ARCHIVE + iterations, SEED, critic_refresh=refresh)
    opt.tell(X, rows(X))
    seconds = 0.0
    for _ in range(iterations):
        t0 = perf_counter()
        proposal = opt.ask()
        seconds += perf_counter() - t0
        opt.tell(proposal, rows(proposal))
    return seconds / iterations


def time_refresh_cycle(reps: int) -> dict:
    """Best-of-``reps`` mean iteration seconds over one default refresh
    cycle, fresh-every-ask vs the default schedule, reps interleaved."""
    problem, X, rows = iteration_archive()
    iterations = inspect.signature(DNNOpt).parameters["critic_refresh"].default
    fresh, default = [], []
    for _ in range(reps):
        fresh.append(time_cycle(problem, X, rows, 1, iterations))
        default.append(time_cycle(problem, X, rows, iterations, iterations))
    return {
        "problem": "folded_cascode",
        "archive_rows": ITERATION_ARCHIVE,
        "iterations": iterations,
        "reps": reps,
        "fresh_mean_s": min(fresh),
        "default_mean_s": min(default),
        "speedup": min(fresh) / min(default),
        "vs_anchor": ANCHOR_ITERATION_S / min(default),
    }


def trial_optimizer(problem, budget: int, seed: int) -> DNNOpt:
    return DNNOpt(problem, budget, seed, n_init=TRIAL_INIT)


def folded_cascode_problem():
    return FoldedCascodeOTA().problem()


def histories_sha256(histories) -> str:
    digest = hashlib.sha256()
    for history in histories:
        digest.update(np.ascontiguousarray(history.X).tobytes())
        digest.update(np.ascontiguousarray(history.F).tobytes())
    return digest.hexdigest()


def time_trials(reps: int) -> dict:
    """Best-of-``reps`` seconds of ``run_trials`` at ``workers=1`` and
    ``workers=2``, reps interleaved, and whether their histories agree."""
    seconds: dict[int, list[float]] = {1: [], 2: []}
    hashes: set[str] = set()
    for _ in range(reps):
        for workers in (1, 2):
            t0 = perf_counter()
            histories = run_trials(trial_optimizer, folded_cascode_problem,
                                   budget=TRIAL_BUDGET, n_trials=TRIALS,
                                   base_seed=SEED, workers=workers)
            seconds[workers].append(perf_counter() - t0)
            hashes.add(histories_sha256(histories))
    return {
        "problem": "folded_cascode",
        "trials": TRIALS,
        "budget": TRIAL_BUDGET,
        "n_init": TRIAL_INIT,
        "reps": reps,
        "serial_s": min(seconds[1]),
        "parallel_s": min(seconds[2]),
        "speedup": min(seconds[1]) / min(seconds[2]),
        "history_sha256": sorted(hashes),
        "histories_equal": len(hashes) == 1,
    }


def run(quick: bool) -> dict:
    reps = 2 if quick else 5
    inputs, targets = training_set()
    epochs = fresh_critic().epochs
    print(f"critic fit, {len(inputs)} rows x {epochs} epochs "
          f"({reps} reps/path)...", flush=True)
    fit = compare_fits(reference_fit, Critic.fit, inputs, targets, reps, epochs)
    print(f"warm critic fine-tune, {len(inputs)} rows x {warm_epochs()} epochs "
          f"({reps} reps/path)...", flush=True)
    warm = compare_fits(warm_reference_fit, warm_fused_fit, inputs, targets, reps,
                        warm_epochs(), warm=True)
    print(f"DNN-Opt refresh cycle, folded-cascode, {ITERATION_ARCHIVE}-row archive "
          f"({reps} reps)...", flush=True)
    cycle = time_refresh_cycle(reps)
    trial_reps = 3 if quick else 5
    print(f"run_trials, {TRIALS} folded-cascode DNN-Opt trials of {TRIAL_BUDGET} sims, "
          f"workers=1 vs 2 ({trial_reps} reps)...", flush=True)
    trials = time_trials(trial_reps)
    return {
        "benchmark": "bench_modeling",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "metric_note": ("'speedup' (fused vs per-layer reference critic fit on one "
                        "host), 'warm_fit.speedup' (the same for a warm fine-tune), "
                        "'refresh_cycle.speedup' (critic_refresh=1 vs the "
                        "default mean iteration time) and 'trials.speedup' "
                        "(run_trials workers=1 vs 2) are the machine-portable "
                        "guarded metrics; absolute seconds are host-dependent."),
        "critic_fit": {key: fit[key] for key in
                       ("rows", "epochs", "reps", "reference_s", "fused_s", "final_loss")},
        "bit_identical": fit["bit_identical"],
        "speedup": fit["speedup"],
        "warm_fit": warm,
        "refresh_cycle": cycle,
        "trials": trials,
    }


def report(results: dict) -> None:
    fit = results["critic_fit"]
    print(f"  reference: {fit['reference_s']:.3f} s")
    print(f"  fused    : {fit['fused_s']:.3f} s")
    print(f"  speedup: {results['speedup']:.2f}x   bit-identical: {results['bit_identical']}")
    warm = results["warm_fit"]
    print(f"  warm fine-tune ({warm['epochs']} epochs): reference {warm['reference_s']:.3f} s, "
          f"fused {warm['fused_s']:.3f} s, speedup {warm['speedup']:.2f}x   "
          f"bit-identical: {warm['bit_identical']}")
    cycle = results["refresh_cycle"]
    print(f"  refresh cycle of {cycle['iterations']}: mean iteration "
          f"{cycle['fresh_mean_s']:.3f} s fresh every ask, "
          f"{cycle['default_mean_s']:.3f} s default ({cycle['speedup']:.2f}x); "
          f"{cycle['vs_anchor']:.2f}x vs the {ANCHOR_ITERATION_S} s anchor (target 3x)")
    trials = results["trials"]
    print(f"  run_trials: workers=1 {trials['serial_s']:.3f} s, workers=2 "
          f"{trials['parallel_s']:.3f} s ({trials['speedup']:.2f}x)   "
          f"histories equal: {trials['histories_equal']}")


def check_against(results: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    failed = False
    for name, base, measured, fraction in (
            ("critic_fit", baseline["speedup"], results["speedup"], REGRESSION_FLOOR),
            ("warm_fit", baseline["warm_fit"]["speedup"], results["warm_fit"]["speedup"],
             REGRESSION_FLOOR),
            ("refresh_cycle", baseline["refresh_cycle"]["speedup"],
             results["refresh_cycle"]["speedup"], REGRESSION_FLOOR),
            ("trials", baseline["trials"]["speedup"], results["trials"]["speedup"],
             TRIALS_FLOOR)):
        floor = fraction * base
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(f"check {name}: speedup {measured:.2f}x vs baseline {base:.2f}x "
              f"(floor {floor:.2f}x) -> {verdict}")
        failed |= measured < floor
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer reps for the CI perf smoke")
    parser.add_argument("--out", default="BENCH_modeling.json",
                        help="where to write the results JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail if any speedup falls below its floor vs "
                             "this committed baseline JSON")
    args = parser.parse_args(argv)

    results = run(args.quick)
    report(results)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    if not (results["bit_identical"] and results["warm_fit"]["bit_identical"]):
        print("fused and reference critic training diverged", file=sys.stderr)
        return 1
    if not results["trials"]["histories_equal"]:
        print("run_trials histories differ between workers=1 and workers=2",
              file=sys.stderr)
        return 1
    if args.check and check_against(results, Path(args.check)):
        print(f"perf regression vs {args.check}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
