#!/usr/bin/env python3
"""End-to-end DNN-Opt study benchmark.

Runs seeded DNN-Opt ``Study`` runs on the paper's circuits, checks their
outputs and prints every metric by name with its unit::

    python3 e2e_bench/run.py --workload fc_model_warm --seed 0 --seconds 55 --trace 0

``--trace 0`` repeats the workload's study (set-up included; the warm
archive is simulated once per run) while another one fits in
``--seconds``, at least twice, and reports the end-to-end metrics.
``--trace 1`` runs the study once untraced and once traced and reports the
per-layer split of the traced run (see ``tracer.py``).  Every repetition
uses the same inputs, so every repetition must produce the same history
hash.

The end-to-end times are scaled to a reference host speed: a fixed
pure-Python loop is timed before every ask and batch (outside the timers)
and between studies, and each time metric is multiplied by
``REFERENCE_PROBE_S`` over the run's mean reading.  On a shared host whose
speed drifts, this removes most of the drift from run to run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (studies run), ``failed`` (studies that failed a
check) and ``metrics``.  The line before it starts with
``info`` and records the host, the speed readings, the unscaled times, the
per-study hashes and sample counts.
The program's configuration (BLAS threading included) is left at its
defaults.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (name, unit, better) of every end-to-end metric (``--trace 0``)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("ask_p50_s", "s", "lower"),
    ("sim_p50_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``)
PER_LAYER = (
    ("model.pseudo_s", "s", "lower"),
    ("model.pseudo_rows", "count", "lower"),
    ("model.critic_fit_s", "s", "lower"),
    ("model.actor_fit_s", "s", "lower"),
    ("model.select_s", "s", "lower"),
    ("nn.forward_s", "s", "lower"),
    ("nn.backward_s", "s", "lower"),
    ("nn.backward_calls", "count", "lower"),
    ("nn.adam_step_s", "s", "lower"),
    ("nn.adam_steps", "count", "lower"),
    ("circuit.measure_s", "s", "lower"),
    ("circuit.measure_calls", "count", "lower"),
    ("circuit.post_s", "s", "lower"),
    ("spice.op_s", "s", "lower"),
    ("spice.op.calls", "count", "lower"),
    ("spice.ac_s", "s", "lower"),
    ("spice.ac.calls", "count", "lower"),
    ("spice.noise_s", "s", "lower"),
    ("spice.noise.calls", "count", "lower"),
    ("spice.tran_s", "s", "lower"),
    ("spice.tran.calls", "count", "lower"),
    ("newton.assemble_s", "s", "lower"),
    ("newton.solve_s", "s", "lower"),
    ("newton.iterations", "count", "lower"),
    ("newton.solves", "count", "lower"),
    ("ac.solves", "count", "lower"),
    ("engine.evaluate_s", "s", "lower"),
    ("engine.batches", "count", "lower"),
    ("engine.sim_calls", "count", "lower"),
    ("engine.cache_hits", "count", "higher"),
    ("engine.dedups", "count", "higher"),
    ("engine.pool_builds", "count", "lower"),
    ("engine.dispatch_s", "s", "lower"),
    ("study.ask_s", "s", "lower"),
    ("study.tell_s", "s", "lower"),
    ("study.self_s", "s", "lower"),
    ("study.best_fom", "fom", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("failed_frac", "frac", "lower"),
)

#: Newton counters of ``repro.spice.profile`` -> per-layer metric names
NEWTON = {"assemble_s": "newton.assemble_s", "solve_s": "newton.solve_s",
          "newton_iterations": "newton.iterations",
          "newton_solves": "newton.solves", "ac_solves": "ac.solves"}

ARCHIVE_SALT = 0x5A11   # seeds the warm archive's Latin hypercube
POOL_SALT = 0x9001      # seeds the designs that start the process pool
MIN_REPS = 2            # repeated studies per untraced run (hash check)
MAX_REPS = 50
PROBE_LOOP = 200_000    # iterations of one speed-probe reading
PROBE_SAMPLES = 8       # readings taken before the first study and after each one
#: mean speed-probe reading of a 2-vCPU reference host; time metrics are
#: scaled to it (see the README's "Host-speed scaling")
REFERENCE_PROBE_S = 0.013


@dataclass(frozen=True)
class Workload:
    circuit: str               # "fc" (folded-cascode OTA) | "latch" (StrongARM)
    budget: int                # fresh simulations per study
    batch_size: int = 1
    backend: str = "serial"    # EvalEngine backend; parallel ones use nproc workers
    warm_rows: int = 0         # same-problem archive told before the first ask
    n_init: int | None = None  # DNNOpt's default unless scaled down for the smoke test


WORKLOADS = {
    "fc_model_warm": Workload("fc", budget=6, warm_rows=90),
    "latch_tran_b8": Workload("latch", budget=28, batch_size=8, backend="process"),
}

#: tiny variants used by ``--smoke`` (the benchmark's own smoke test)
SMOKE = {
    "fc_model_warm": {"budget": 2, "warm_rows": 24},
    "latch_tran_b8": {"budget": 10, "n_init": 4},
}


def _load_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"e2e_bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"e2e_bench: imported repro from {repro.__file__}, not {SRC}")


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_info() -> dict:
    import numpy as np

    from repro.core import default_workers
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": default_workers(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                         if k in os.environ},
            "loadavg": list(os.getloadavg())}


def speed_probe(samples: int = PROBE_SAMPLES) -> list[float]:
    """Seconds of a fixed pure-Python loop, ``samples`` times over.

    Each reading is the host's speed at that moment.  A forked copy of this
    process runs the same loop meanwhile, so the reading is taken with a
    second vCPU busy, as it is in every workload (pool workers, or the BLAS
    helper thread).  The loop uses no code of the program, so no change to
    the program can move it.
    """
    readings = []
    for _ in range(samples):
        pid = os.fork()
        if pid == 0:  # the load: loop, then leave at once, touching nothing else
            try:
                _probe_loop()
            finally:
                os._exit(0)
        try:
            readings.append(_probe_loop())
        finally:
            os.waitpid(pid, 0)
    return readings


def _probe_loop() -> float:
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i
    return perf_counter() - start


def history_hash(history) -> str:
    import numpy as np
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(history.X).tobytes())
    digest.update(np.ascontiguousarray(history.F).tobytes())
    return digest.hexdigest()


def make_problem(workload: Workload):
    from repro.circuits import FoldedCascodeOTA, StrongArmLatch
    return {"fc": FoldedCascodeOTA, "latch": StrongArmLatch}[workload.circuit]().problem()


def simulate_archive(workload: Workload, seed: int, probes: list[float]):
    """The warm archive ``(X, F)`` and each design's simulation seconds.

    The archive is a seeded Latin hypercube, simulated on the serial engine
    one design per batch, with a speed reading appended to ``probes``
    before each batch.  The seconds are ``(measured, scaled)`` pairs.
    """
    import numpy as np

    from repro.core import EvalEngine
    problem = make_problem(workload)
    X = problem.space.sample_lhs(np.random.default_rng([ARCHIVE_SALT, seed]),
                                 workload.warm_rows)
    rows, seconds = [], []
    with EvalEngine() as engine:
        for x in X:
            probes.extend(speed_probe(1))
            start = perf_counter()
            rows.append(engine.evaluate_batch(problem, x[None])[0])
            measured = perf_counter() - start
            seconds.append((measured, measured * REFERENCE_PROBE_S / probes[-1]))
    return (X, np.array(rows)), seconds


def run_study(workload: Workload, seed: int, archive=None, tracer=None,
              probes: list[float] | None = None) -> dict:
    """Set up and run one seeded study; returns its timings, checks and layers.

    ``archive`` is the warm archive from :func:`simulate_archive`, told as
    the study's warm prefix.  Given ``probes``, a speed reading is appended
    to it before every ask and batch; their time is left out of the timings.
    ``wall_s`` and the ``ask_s``/``sim_s`` samples are ``(measured,
    scaled)`` pairs; without ``probes`` the two are equal.
    """
    import numpy as np

    from repro.core import DNNOpt, EvalEngine, Study, WarmStart, default_workers
    from repro.spice import profile

    t0 = perf_counter()
    problem = make_problem(workload)
    parallel = workload.backend != "serial"
    engine = EvalEngine(workload.backend, workers=default_workers() if parallel else None)
    try:
        warm = None
        if archive is not None:
            warm = WarmStart(*archive, space=problem.space, mode="tell")
        if parallel:
            # Start the pool here, so its start-up counts as set-up.
            rng = np.random.default_rng([POOL_SALT, seed])
            engine.evaluate_batch(problem, problem.space.sample(rng, engine.workers))
        kwargs = {} if workload.n_init is None else {"n_init": workload.n_init}
        opt = DNNOpt(problem, workload.budget, seed, batch_size=workload.batch_size,
                     engine=engine, **kwargs)
        study = Study(opt, warm_start=warm)
        setup_s = perf_counter() - t0

        # Light end-to-end timers on this study's own optimizer and engine.
        # Every ask and batch is timed as measured and as scaled by the
        # speed reading taken just before it.
        ask_s, sim_s, units = [], [], []
        ask, evaluate = opt.ask, engine.evaluate_batch
        probe_spent = 0.0

        def probe() -> float:
            # One speed reading, kept out of every timer; returns its scale.
            nonlocal probe_spent
            if probes is None:
                return 1.0
            start = perf_counter()
            probes.extend(speed_probe(1))
            probe_spent += perf_counter() - start
            return REFERENCE_PROBE_S / probes[-1]

        def timed_ask(k=None):
            scale = probe()
            model_based = opt.history.n_total >= opt.n_init
            start = perf_counter()
            X = ask(k)
            seconds = perf_counter() - start
            units.append((seconds, scale))
            if model_based:
                ask_s.append((seconds, seconds * scale))
            return X

        def timed_evaluate(problem, X):
            scale = probe()
            start = perf_counter()
            F = evaluate(problem, X)
            seconds = perf_counter() - start
            units.append((seconds, scale))
            sim_s.append((seconds / len(F), seconds * scale / len(F)))
            return F

        opt.ask, engine.evaluate_batch = timed_ask, timed_evaluate

        if tracer is not None:
            tracer.reset()
            sim_before = (_worker_counters(engine) if parallel else profile.snapshot())
        start = perf_counter()
        history = study.run()
        wall_s = perf_counter() - start - probe_spent
        if tracer is not None:
            if parallel:
                after = _worker_counters(engine)
                sim = {name: after[name] - sim_before[name] for name in after}
            else:
                sim = profile.delta(sim_before)
        pool_builds = engine.counters_snapshot()["n_pool_builds"]
    finally:
        engine.close()

    F = history.F
    fresh = F[history.n_warm:]
    failure = problem.failure_vector()
    is_failure = np.all(F == failure, axis=1)
    errors = []
    if history.n_evals != workload.budget:
        errors.append(f"spent {history.n_evals} simulations, budget {workload.budget}")
    if not np.all(np.all(np.isfinite(F), axis=1) | is_failure):
        errors.append("a told row is neither finite nor the failure vector")
    # The little wall time outside asks and batches (tells, bookkeeping)
    # takes the units' mean scale.
    outside = wall_s - sum(seconds for seconds, _ in units)
    wall_scaled = (sum(seconds * scale for seconds, scale in units)
                   + outside * statistics.fmean(scale for _, scale in units))
    result = {
        "setup_s": setup_s, "wall_s": (wall_s, wall_scaled), "ask_s": ask_s,
        "sim_s": sim_s, "hash": history_hash(history), "n_sims": len(fresh),
        "n_failed": int(is_failure[history.n_warm:].sum()),
        "n_feasible": int(problem.is_feasible(fresh).sum()),
        "best_fom": float(np.min(history.fom[history.n_warm:])),
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = _layers(tracer, sim, history.engine_stats, pool_builds,
                                   engine.workers if parallel else 1)
        result["layers"]["study.best_fom"] = result["best_fom"]
        if result["layers"]["circuit.measure_calls"] != result["layers"]["engine.sim_calls"]:
            errors.append("traced measure calls differ from the engine's simulations")
    return result


def _worker_counters(engine) -> dict[str, float]:
    """Simulator counters the engine gathered from its pool workers' chunks."""
    from tracer import SIM_COUNTERS
    report = engine.hotpath_report()
    counters = {name: report[name] for name in NEWTON}
    counters.update({name: engine.phase_counters.get(name, 0.0) for name in SIM_COUNTERS})
    return counters


def _layers(tracer, sim: dict, stats: dict, pool_builds: int, parallel: int) -> dict:
    """Per-layer metrics of one traced study (``study.best_fom`` added by the caller)."""
    from tracer import ANALYSES
    total, calls = tracer.total, tracer.calls
    layers = {
        "model.pseudo_s": total["model.pseudo"],
        "model.pseudo_rows": tracer.rows["model.pseudo"],
        "model.critic_fit_s": total["model.critic_fit"],
        "model.actor_fit_s": total["model.actor_fit"],
        # The rest of an ask: elite region, critic predictions, actor
        # proposals, Eq. 8 selection and de-duplication.
        "model.select_s": total["study.ask"] - total["model.pseudo"]
        - total["model.critic_fit"] - total["model.actor_fit"],
        "nn.forward_s": total["nn.forward"],
        "nn.backward_s": total["nn.backward"],
        "nn.backward_calls": calls["nn.backward"],
        "nn.adam_step_s": total["nn.adam_step"],
        "nn.adam_steps": calls["nn.adam_step"],
        "circuit.measure_s": sim["circuit.measure_s"],
        "circuit.measure_calls": int(sim["circuit.measure_calls"]),
        # Netlist build plus measurement post-processing.
        "circuit.post_s": sim["circuit.measure_s"]
        - sum(sim[f"spice.{a}_s"] for a in ANALYSES),
    }
    for analysis in ANALYSES:
        layers[f"spice.{analysis}_s"] = sim[f"spice.{analysis}_s"]
        layers[f"spice.{analysis}.calls"] = int(sim[f"spice.{analysis}.calls"])
    for counter, name in NEWTON.items():
        value = sim[counter]
        layers[name] = value if counter.endswith("_s") else int(value)
    evaluate_s = total["engine.evaluate"]
    layers.update({
        "engine.evaluate_s": evaluate_s,
        "engine.batches": calls["engine.evaluate"],
        "engine.sim_calls": stats["misses"],
        "engine.cache_hits": stats["cache_hits"],
        "engine.dedups": stats["dedups"],
        "engine.pool_builds": pool_builds,
        # Evaluate time not spent inside measure; pool workers measure in
        # parallel, so their summed measure time is shared out over them.
        "engine.dispatch_s": evaluate_s - sim["circuit.measure_s"] / parallel,
        "study.ask_s": total["study.ask"],
        "study.tell_s": total["study.tell"],
        "study.self_s": total["study.run"] - total["study.ask"]
        - total["study.tell"] - evaluate_s,
    })
    return layers


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = replace(workload, **SMOKE[args.workload])

    _load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy  # noqa: F401  (timed as part of the program's import)

    import repro.circuits  # noqa: F401
    import repro.core  # noqa: F401
    from tracer import Tracer
    import_s = perf_counter() - _START

    probes = speed_probe()
    begin = perf_counter()
    # The warm archive is simulated once per run and told to every study.
    archive, archive_sims = None, []
    if workload.warm_rows:
        archive, archive_sims = simulate_archive(workload, args.seed, probes)
    archive_s = sum(measured for measured, _ in archive_sims)
    studies = []

    if args.trace:
        studies.append(run_study(workload, args.seed, archive))
        tracer = Tracer()
        with tracer.installed():
            studies.append(run_study(workload, args.seed, archive, tracer))
    else:
        durations = []
        while len(studies) < MAX_REPS:
            start = perf_counter()
            studies.append(run_study(workload, args.seed, archive, probes=probes))
            probes += speed_probe()
            durations.append(perf_counter() - start)
            # Start another study while one of typical length still fits.
            remaining = args.seconds - (perf_counter() - begin)
            if len(studies) >= MIN_REPS and statistics.median(durations) > remaining:
                break

    for study in studies[1:]:
        if study["hash"] != studies[0]["hash"]:
            study["errors"].append("history hash differs from the first study's")
    errors = [e for s in studies for e in s["errors"]]
    failed = sum(1 for s in studies if s["errors"])
    sims = sum(s["n_sims"] for s in studies)
    failure_rows = sum(s["n_failed"] for s in studies)

    raw = None
    if args.trace:
        untraced, traced = studies
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = traced["wall_s"][0] / untraced["wall_s"][0] - 1.0
        values["failed_frac"] = failure_rows / sims
        metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
    else:
        # Imports and study set-up have no reading of their own: they take
        # the run's mean scale.
        run_scale = REFERENCE_PROBE_S / statistics.fmean(probes)
        fixed_setup_s = import_s + statistics.median(s["setup_s"] for s in studies)
        asks = [t for s in studies for t in s["ask_s"]]
        batches = [*archive_sims, *(t for s in studies for t in s["sim_s"])]
        raw, values = {}, {}
        for which, out in ((0, raw), (1, values)):
            out["wall_s"] = statistics.median(s["wall_s"][which] for s in studies)
            out["ask_p50_s"] = statistics.median(t[which] for t in asks)
            out["sim_p50_s"] = statistics.median(t[which] for t in batches)
            out["setup_s"] = (sum(t[which] for t in archive_sims)
                              + fixed_setup_s * (run_scale if which else 1.0))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: _metric(values[name], unit) for name, unit, _ in END_TO_END}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "host": host_info(), "import_s": import_s,
        "archive_s": archive_s, "speed_probe_s": probes, "raw_s": raw,
        "studies": [{key: s[key] for key in ("setup_s", "wall_s", "hash", "n_sims",
                                             "n_failed", "n_feasible", "best_fom")}
                    for s in studies],
        "sims": sims, "failure_rows": failure_rows,
        "ask_samples": sum(len(s["ask_s"]) for s in studies),
        "sim_samples": len(archive_sims) + sum(len(s["sim_s"]) for s in studies),
        "errors": errors,
    }
    print("info " + json.dumps(info))
    print(json.dumps({"correct": not errors, "attempted": len(studies), "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
