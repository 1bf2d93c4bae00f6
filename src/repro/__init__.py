"""DNN-Opt reproduction (Budak et al., DAC 2021).

An RL-inspired two-stage DNN black-box optimizer for analog circuit sizing,
together with everything needed to reproduce the paper end-to-end offline:

* :mod:`repro.nn` — fused NumPy MLP + Adam substrate (PyTorch substitute);
* :mod:`repro.spice` — a from-scratch SPICE-class circuit simulator;
* :mod:`repro.circuits` — the paper's six benchmark circuits;
* :mod:`repro.problems` — constrained-problem abstraction + synthetic suite;
* :mod:`repro.core` — DNN-Opt itself (Algorithm 1);
* :mod:`repro.gp` / :mod:`repro.baselines` — DE, BO-wEI, GASPAD, SA;
* :mod:`repro.sensitivity` — Eq. 7 critical-device identification;
* :mod:`repro.experiments` — per-table/figure reproduction harness.

Quickstart::

    from repro import DNNOpt, Study
    from repro.circuits import FoldedCascodeOTA

    problem = FoldedCascodeOTA().problem()
    history = Study(DNNOpt(problem, budget=200, seed=0)).run()
    print(history.summary())

Optimizers speak *ask/tell* (propose designs / observe results); a
:class:`Study` owns the loop — budget, stop conditions, callbacks,
checkpoint/resume and pipelined dispatch.  ``optimizer.run()`` remains as
a shim for the one-liner above.
"""

from .core import DNNOpt, OptimizationHistory, Optimizer, Study, WarmStart
from .problems import DesignSpace, Objective, OptimizationProblem, Spec, Variable

__version__ = "1.2.0"

__all__ = [
    "DNNOpt",
    "Optimizer",
    "OptimizationHistory",
    "Study",
    "WarmStart",
    "OptimizationProblem",
    "DesignSpace",
    "Variable",
    "Spec",
    "Objective",
    "__version__",
]
