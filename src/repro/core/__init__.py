"""DNN-Opt core: FoM, pseudo-samples, actor-critic networks, Algorithm 1,
the ask/tell optimizer protocol and the :class:`Study` run driver."""

from .actor import Actor
from .critic import Critic
from .dnn_opt import DNNOpt
from .engine import EvalEngine, EvalHandle, default_workers
from .fom import fom_from_raw, fom_normalized
from .history import OptimizationHistory, Optimizer
from .pseudo import generate_pseudo_samples
from .study import Study
from .warmstart import WarmStart

__all__ = [
    "DNNOpt",
    "Actor",
    "Critic",
    "DiskCache",
    "EvalEngine",
    "EvalHandle",
    "default_workers",
    "Optimizer",
    "OptimizationHistory",
    "FleetCoordinator",
    "RegistryServer",
    "ServiceError",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpec",
    "ChaosProxy",
    "Study",
    "WorkerRegistry",
    "WarmStart",
    "fom_normalized",
    "fom_from_raw",
    "generate_pseudo_samples",
]


def __getattr__(name):
    # Lazy: ``python -m repro.core.service`` / ``python -m
    # repro.core.diskcache`` must not find those modules pre-imported by
    # this package init (runpy would warn and run a second copy), so the
    # service/fleet surface resolves on first touch instead.
    if name in ("ServiceError", "DeadlineExceeded"):
        from . import service
        return getattr(service, name)
    if name == "DiskCache":
        from .diskcache import DiskCache
        return DiskCache
    if name in ("FleetCoordinator", "RegistryServer", "WorkerRegistry"):
        from . import fleet
        return getattr(fleet, name)
    if name in ("FaultPlan", "FaultSpec", "ChaosProxy"):
        from . import chaos
        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
