"""Span tracing for the end-to-end benchmark, installed from outside the program.

The benchmark leaves ``src/`` untouched, so :class:`Tracer` wraps the public
entry points of each layer in place while it is installed and puts the
originals back afterwards.  Each wrapper adds its call's wall-clock seconds
and a call count to a per-span total.

Two sinks, chosen by where the wrapped code runs:

* Optimizer-side spans (study, modeling, NN, engine) always run in the
  benchmark's own process and accumulate in :attr:`Tracer.total`,
  :attr:`Tracer.calls` and :attr:`Tracer.rows`.
* Simulator-side spans (``SizingCircuit.measure`` and the four analyses as
  the circuit modules bind them) may run inside ``process``-backend pool
  workers.  They accumulate in the simulator's own counter table,
  :mod:`repro.spice.profile`, which the tracer extends with one entry per
  span.  Pool workers fork from a process that already has the extended
  table and the wrappers, and the engine ships every worker's per-chunk
  counter deltas back with the rows, so these spans reach the parent the
  same way the Newton counters do.

Self times follow from the fixed nesting of the layers: a layer's self time
is its span total minus the totals of the spans it contains.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.circuits import folded_cascode, strongarm_latch
from repro.core import Actor, Critic, DNNOpt, EvalEngine, Study, dnn_opt
from repro.nn import MLP, Adam, Tensor
from repro.spice import profile

__all__ = ["Tracer", "SIM_COUNTERS", "ANALYSES"]

#: analysis name -> the function name the circuit modules import it under
ANALYSES = {"op": "operating_point", "ac": "ac_analysis",
            "noise": "noise_analysis", "tran": "transient"}

#: simulator-side span counters added to the ``repro.spice.profile`` table
SIM_COUNTERS = ("circuit.measure_s", "circuit.measure_calls",
                *(f"spice.{a}{suffix}" for a in ANALYSES
                  for suffix in ("_s", ".calls")))

_MISSING = object()


class Tracer:
    """Per-span wall-clock totals and call counts for one traced study."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def reset(self) -> None:
        """Forget optimizer-side totals (simulator-side ones are read as deltas)."""
        self.total.clear()
        self.calls.clear()
        self.rows.clear()

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn, *, count_rows: bool = False):
        total, calls, rows = self.total, self.calls, self.rows

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                total[name] += perf_counter() - t0
                calls[name] += 1
            if count_rows:
                rows[name] += len(out[0])
            return out

        return wrapper

    @staticmethod
    def _sim_span(prefix: str, calls_name: str, fn):
        seconds_name = f"{prefix}_s"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                profile.add(seconds_name, perf_counter() - t0)
                profile.add(calls_name, 1)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    # -- install / uninstall ------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit.

        Install before the study's engine builds a process pool, so the
        workers fork with the wrappers and the extended counter table.
        """
        names = tuple(profile.COUNTER_NAMES)
        for name in SIM_COUNTERS:
            profile._counters.setdefault(name, 0.0)
        profile.COUNTER_NAMES = names + SIM_COUNTERS
        try:
            span = self._span
            self._patch(Study, "run", span("study.run", Study.run))
            self._patch(DNNOpt, "ask", span("study.ask", DNNOpt.ask))
            self._patch(DNNOpt, "tell", span("study.tell", DNNOpt.tell))
            self._patch(dnn_opt, "generate_pseudo_samples",
                        span("model.pseudo", dnn_opt.generate_pseudo_samples,
                             count_rows=True))
            self._patch(Critic, "fit", span("model.critic_fit", Critic.fit))
            self._patch(Critic, "predict", span("model.critic_predict", Critic.predict))
            self._patch(Actor, "fit", span("model.actor_fit", Actor.fit))
            self._patch(Actor, "propose", span("model.actor_propose", Actor.propose))
            self._patch(MLP, "__call__", span("nn.forward", MLP.__call__))
            self._patch(Tensor, "backward", span("nn.backward", Tensor.backward))
            self._patch(Adam, "step", span("nn.adam_step", Adam.step))
            self._patch(EvalEngine, "evaluate_batch",
                        span("engine.evaluate", EvalEngine.evaluate_batch))
            for cls in (folded_cascode.FoldedCascodeOTA, strongarm_latch.StrongArmLatch):
                self._patch(cls, "measure", self._sim_span(
                    "circuit.measure", "circuit.measure_calls", cls.measure))
            for module in (folded_cascode, strongarm_latch):
                for analysis, attr in ANALYSES.items():
                    if hasattr(module, attr):
                        self._patch(module, attr, self._sim_span(
                            f"spice.{analysis}", f"spice.{analysis}.calls",
                            getattr(module, attr)))
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            profile.COUNTER_NAMES = names
            for name in SIM_COUNTERS:
                profile._counters.pop(name, None)
