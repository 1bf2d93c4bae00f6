"""Per-table/figure experiment configurations.

Each ``run_*`` function regenerates one artifact of the paper's evaluation
section and returns both the raw data and a rendered plain-text table or
figure.  Budgets and trial counts are scaled down by default so the whole
benchmark suite finishes on a laptop; set ``REPRO_FULL=1`` in the
environment for paper-scale runs (10 trials, 500-simulation budgets,
10000 for DE).  Every trial follows the paper's sequential protocol; the
``workers=`` and ``engine_factory=`` arguments only change where trials and
simulations run, never their results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..baselines import BOwEI, GASPAD, DifferentialEvolution, SimulatedAnnealing
from ..circuits import (
    CTLE,
    InverterChain,
    LDORegulator,
    LevelShifter,
)
from ..core import DNNOpt
from ..sensitivity import reduce_problem, sensitivity_analysis
from .curves import ascii_plot, mean_fom_curve
from .runner import compare_algorithms
from .statistics import algorithm_stats
from .tables import render_table

__all__ = [
    "ExperimentScale",
    "current_scale",
    "building_block_optimizers",
    "run_parameter_table",
    "run_building_block_comparison",
    "render_stats_table",
    "render_fom_figure",
    "run_industrial_comparison",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Trial counts and budgets for one run of the experiment suite."""

    n_trials: int
    budget: int          # model-based methods (paper: 500)
    de_budget: int       # DE (paper: 10000)
    industrial_budget: int
    sa_budget: int       # simulated-annealing industrial baseline

    @property
    def label(self) -> str:
        return (f"{self.n_trials} trials, budget {self.budget} "
                f"(DE {self.de_budget}, SA {self.sa_budget})")


_SMOKE = ExperimentScale(n_trials=2, budget=60, de_budget=240,
                         industrial_budget=50, sa_budget=150)
_FULL = ExperimentScale(n_trials=10, budget=500, de_budget=10_000,
                        industrial_budget=200, sa_budget=1200)


def current_scale() -> ExperimentScale:
    """Scaled-down defaults unless ``REPRO_FULL=1``."""
    return _FULL if os.environ.get("REPRO_FULL") == "1" else _SMOKE


def building_block_optimizers(n_init: int = 20) -> dict:
    """The four algorithms of Tables II/IV as ``factory(problem, budget, seed)``."""
    return {
        "DE": lambda p, b, s: DifferentialEvolution(p, b, s),
        "BO-wEI": lambda p, b, s: BOwEI(p, b, s, n_init=n_init, refit_every=5),
        "GASPAD": lambda p, b, s: GASPAD(p, b, s, n_init=n_init, refit_every=2),
        "DNN-Opt": lambda p, b, s: DNNOpt(p, b, s, n_init=n_init),
    }


# ----------------------------------------------------------------------
# Tables I and III: design-variable ranges
# ----------------------------------------------------------------------
def run_parameter_table(circuit) -> str:
    """Regenerate a parameter/range table (Tables I and III) from the code."""
    rows = [(name, unit or "-", lower, upper)
            for name, unit, lower, upper in circuit.parameter_table()]
    return render_table(["Parameter", "Unit", "LB", "UB"], rows,
                        title=f"Design parameters and ranges: {circuit.name}")


# ----------------------------------------------------------------------
# Tables II/IV and Figures 3/4: building-block comparisons
# ----------------------------------------------------------------------
def run_building_block_comparison(circuit_cls, *, scale: ExperimentScale | None = None,
                                  workers: int = 1, verbose: bool = False,
                                  engine_factory=None,
                                  warm_start=None) -> dict:
    """Run the 4-algorithm comparison on a building block.

    Returns ``{"histories": ..., "stats": ..., "curves": ...}`` — everything
    Table II/IV and Figure 3/4 need.  ``workers > 1`` spreads the
    independent trials over a process pool without changing any result;
    ``engine_factory`` gives every trial its own evaluation engine (e.g.
    ``lambda: EvalEngine("remote", hosts=[...])`` to target a running
    evaluation service, or ``partial(EvalEngine, cache_dir=d)`` for a
    persistent disk cache) — also without changing any result.
    ``warm_start`` seeds every trial from a donor archive.
    """
    scale = scale or current_scale()
    problem_factory = lambda: circuit_cls().problem()
    optimizers = building_block_optimizers()
    budgets = {"DE": scale.de_budget}
    histories = compare_algorithms(optimizers, problem_factory, budget=scale.budget,
                                   n_trials=scale.n_trials, budgets=budgets,
                                   workers=workers, verbose=verbose,
                                   engine_factory=engine_factory,
                                   warm_start=warm_start)
    stats = {name: algorithm_stats(name, hs) for name, hs in histories.items()}
    curves = {name: mean_fom_curve(hs, length=scale.budget)
              for name, hs in histories.items()}
    return {"histories": histories, "stats": stats, "curves": curves,
            "scale": scale}


def render_stats_table(stats: dict, *, objective_label: str, unit_scale: float,
                       title: str) -> str:
    """Render Tables II/IV: success rate, sims-to-feasible, objective stats,
    modeling/simulation time."""
    names = list(stats)
    rows = [
        tuple(["success rate"] + [stats[n].success_rate for n in names]),
        tuple(["# of simulations"] + [stats[n].sims_label for n in names]),
        tuple([f"Min {objective_label}"] + [_scaled(stats[n].min_objective, unit_scale)
                                            for n in names]),
        tuple([f"Max {objective_label}"] + [_scaled(stats[n].max_objective, unit_scale)
                                            for n in names]),
        tuple([f"Mean {objective_label}"] + [_scaled(stats[n].mean_objective, unit_scale)
                                             for n in names]),
        tuple(["Modeling time (s)"] + [f"{stats[n].mean_modeling_time_s:.1f}"
                                       for n in names]),
        tuple(["Simulation time (s)"] + [f"{stats[n].mean_simulation_time_s:.1f}"
                                         for n in names]),
    ]
    return render_table(["Metric"] + names, rows, title=title)


def render_fom_figure(curves: dict, title: str) -> str:
    """Render Figures 3/4 as an ASCII plot of average FoM vs simulations."""
    return ascii_plot(curves, title=title)


def _scaled(value, unit_scale: float) -> str:
    if value is None:
        return "NA"
    return f"{value / unit_scale:.3g}"


# ----------------------------------------------------------------------
# Table V: industrial circuits, SA baseline vs DNN-Opt
# ----------------------------------------------------------------------
def run_industrial_comparison(*, scale: ExperimentScale | None = None,
                              sensitivity_threshold: float = 0.02,
                              verbose: bool = False) -> dict:
    """Reproduce Table V: sims to meet all constraints, SA vs DNN-Opt.

    Follows the paper's recipe: start from the designer's (nominal) sizing,
    run sensitivity analysis on the failing constraints, reduce to the
    critical variables, then optimize with ``stop_when_feasible``.
    """
    scale = scale or current_scale()
    circuits = {
        "Inverter Chain": InverterChain,
        "Level Shifter": LevelShifter,
        "LDO": LDORegulator,
        "CTLE": CTLE,
    }
    rows = []
    details = {}
    for label, cls in circuits.items():
        circuit = cls()
        problem = circuit.problem()
        nominal = np.array([circuit.nominal()[v] for v in problem.space.names])

        # Sensitivity pruning on the failing constraints (Eq. 7 recipe).
        sens = sensitivity_analysis(problem, nominal, step=0.1)
        nominal_row = problem.evaluate(nominal)
        violations = problem.normalize(nominal_row)[1:]
        failing = [s.name for s, v in zip(problem.specs, violations) if v > 0]
        reduced = reduce_problem(problem, sens, threshold=sensitivity_threshold,
                                 metrics=failing or None, min_keep=4)

        def sims(optimizer) -> str:
            history = optimizer.run()
            first = history.evals_to_first_feasible
            return str(first) if first is not None else f">{history.n_evals}"

        # Both methods start from the designer's sizing (the paper's
        # industrial circuits were mid-manual-tuning).
        reduced_nominal = nominal[reduced.keep_columns]
        sa = SimulatedAnnealing(reduced, scale.sa_budget, seed=1,
                                x0=reduced_nominal, initial_step=0.1,
                                stop_when_feasible=True)
        dnn = DNNOpt(reduced, scale.industrial_budget, seed=1,
                     n_init=min(20, max(8, 2 * reduced.dim)),
                     initial_designs=reduced_nominal[None, :],
                     stop_when_feasible=True)
        sa_sims = sims(sa)
        dnn_sims = sims(dnn)
        if verbose:
            print(f"{label}: kept {reduced.dim}/{problem.dim} variables, "
                  f"SA {sa_sims}, DNN-Opt {dnn_sims}")
        rows.append((label, problem.dim, reduced.dim, sa_sims, dnn_sims))
        details[label] = {"sensitivity": sens, "reduced": reduced,
                          "failing": failing}

    table = render_table(
        ["Circuit", "Vars", "Critical", "Simulated Annealing", "DNN-Opt"],
        rows,
        title="Table V: simulations to meet constraints on industrial circuits")
    return {"rows": rows, "table": table, "details": details, "scale": scale}
