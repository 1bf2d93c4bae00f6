"""Transient analysis with trapezoidal integration.

Time stepping is nominally fixed at ``tstep`` but lands exactly on waveform
breakpoints (pulse edges, PWL corners) and halves the step on Newton
failures.  The first step after t=0 and after every breakpoint uses backward
Euler to damp the trapezoidal rule's tendency to ring on discontinuities.
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError, ConvergenceError, SpiceError
from ..mna import System
from ..plan import StampPlan, stamping_mode
from ..solver import newton_batch
from .op import nodeset_vector, operating_point

__all__ = ["TransientResult", "transient"]

_MIN_DT_FRACTION = 1e-6  # smallest allowed dt as a fraction of tstep


class TransientResult:
    """Sampled waveforms from a transient run."""

    def __init__(self, compiled, times: np.ndarray, solutions: np.ndarray):
        self.compiled = compiled
        self.t = times
        self.solutions = solutions  # (n_samples, size)

    def v(self, node: str) -> np.ndarray:
        index = self.compiled.node(node)
        if index < 0:
            return np.zeros(len(self.t))
        return self.solutions[:, index]

    def i(self, vsource: str) -> np.ndarray:
        branch = self.compiled.vsource_branch[vsource]
        return self.solutions[:, branch]

    def diff(self, plus: str, minus: str) -> np.ndarray:
        return self.v(plus) - self.v(minus)


def _collect_breakpoints(circuit, tstop: float) -> list[float]:
    from ..devices.sources import CurrentSource, VoltageSource

    points: set[float] = set()
    for device in circuit.devices:
        if isinstance(device, (VoltageSource, CurrentSource)):
            for bp in device.waveform.breakpoints(tstop):
                if 0.0 < bp < tstop:
                    points.add(bp)
    return sorted(points)


class _LegacyStepper:
    """The legacy restamp path behind the plan's stepping interface.

    Every device is re-stamped through per-entry Python calls on every
    Newton iteration; kept as the numerical reference for the plan.
    """

    def __init__(self, compileds, X):
        self.compileds = compileds
        self.size = compileds[0].size
        self.states = [[device.init_state(x, idx)
                        for device, idx in compiled.devices_with_indices()]
                       for compiled, x in zip(compileds, X)]
        self.step = None

    def begin_step(self, states, times, dts, methods) -> None:
        self.step = (times, dts, methods)

    def assemble_transient(self, X):
        times, dts, methods = self.step
        J = np.zeros((len(X), self.size, self.size))
        F = np.zeros((len(X), self.size))
        for b, (compiled, states) in enumerate(zip(self.compileds, self.states)):
            sys = System(self.size, J[b], F[b])
            sys.time = times[b]
            x = X[b]
            for (device, idx), state in zip(compiled.devices_with_indices(), states):
                device.stamp_static(sys, x, idx)
                if device.dynamic and state is not None:
                    device.stamp_dynamic(sys, x, idx, state, dts[b], methods[b])
            # A tiny gmin keeps floating gate nodes well-conditioned mid-step.
            for i in range(compiled.num_nodes):
                sys.add_jac(i, i, 1e-12)
                sys.add_res(i, 1e-12 * x[i])
        return J, F

    def advance(self, states, X_new, dts, methods, accepted) -> None:
        for b, (compiled, states_b) in enumerate(zip(self.compileds, self.states)):
            if not accepted[b]:
                continue
            for pos, (device, idx) in enumerate(compiled.devices_with_indices()):
                if device.dynamic and states_b[pos] is not None:
                    states_b[pos] = device.update_state(X_new[b], idx, states_b[pos],
                                                        dts[b], methods[b])


class _Trajectory:
    """One design's step control: time, step size, method and breakpoints."""

    def __init__(self, circuit, compiled, x: np.ndarray, tstep: float, tstop: float):
        self.compiled = compiled
        self.breakpoints = iter(_collect_breakpoints(circuit, tstop) + [np.inf])
        self.next_bp = next(self.breakpoints)
        self.times = [0.0]
        self.samples = [x.copy()]
        self.t = 0.0
        self.dt = tstep
        self.method = "backward_euler"  # first step
        self.hit_bp = False
        self.t_new = 0.0
        self.error: SpiceError | None = None

    def plan_step(self, tstop: float, dt_min: float) -> bool:
        """Size the next step (landing on breakpoints and tstop); False when done."""
        if not self.t < tstop - 1e-15 * tstop:
            return False
        remaining = tstop - self.t
        if remaining <= dt_min:
            # Within integration resolution of tstop: a sliver step this
            # small only amplifies companion-conductance round-off
            # (geq ~ C/dt) without advancing the solution.
            return False
        self.dt = min(self.dt, remaining)
        self.hit_bp = False
        if self.next_bp - self.t <= self.dt * (1 + 1e-9):
            self.dt = max(self.next_bp - self.t, dt_min)
            self.hit_bp = True
        self.t_new = self.t + self.dt
        return True

    def reject(self, dt_min: float) -> bool:
        """Halve the step after a Newton failure; False once it has stalled."""
        if self.dt <= dt_min * 2:
            self.error = ConvergenceError(
                f"transient stalled at t={self.t:.3e}s (dt={self.dt:.3e})")
            return False
        self.dt = self.dt / 2.0
        return True

    def accept(self, x: np.ndarray, tstep: float) -> None:
        self.t = self.t_new
        self.times.append(self.t)
        self.samples.append(x.copy())
        if self.hit_bp:
            self.next_bp = next(self.breakpoints)
            self.method = "backward_euler"  # restart integrator after the corner
        else:
            self.method = "trapezoidal"
        self.dt = min(self.dt * 2.0, tstep)

    def result(self):
        if self.error is not None:
            return self.error
        return TransientResult(self.compiled, np.asarray(self.times),
                               np.asarray(self.samples))


def transient(circuit, tstep: float, tstop: float, *, uic: bool = False,
              ics: dict[str, float] | None = None, max_newton: int = 60):
    """Integrate from 0 to ``tstop`` with nominal step ``tstep``.

    ``uic=True`` skips the DC operating point and starts from the node
    voltages in ``ics`` (unspecified nodes start at 0 V) — required for
    bistable circuits such as latches.

    ``circuit`` may also be a list of topology-identical circuits (one
    netlist at several sizings).  They are integrated together in lock-step:
    each keeps its own time, step size, method, breakpoints and Newton
    convergence, while assembly and the dense solves are shared.  The
    return value is then a list holding, per circuit, its
    :class:`TransientResult` or the :class:`SpiceError` its simulation
    raised, and each result is bit-identical to simulating that circuit
    alone.
    """
    if tstep <= 0 or tstop <= 0 or tstep > tstop:
        raise AnalysisError("need 0 < tstep <= tstop")
    if max_newton < 1:
        # Zero Newton iterations converge nothing: every step would halve
        # down to a misleading "transient stalled at t=0".
        raise AnalysisError(f"need max_newton >= 1, got {max_newton}")
    single = not isinstance(circuit, (list, tuple))
    circuits = [circuit] if single else list(circuit)
    runs: list[_Trajectory | SpiceError] = []
    for member in circuits:
        try:
            runs.append(_start(member, tstep, tstop, uic, ics))
        except SpiceError as exc:
            if single:
                raise
            runs.append(exc)
    live = [run for run in runs if isinstance(run, _Trajectory)]
    if live:
        _integrate(live, tstep, tstop, max_newton)
    results = [run if isinstance(run, SpiceError) else run.result() for run in runs]
    if single:
        if isinstance(results[0], SpiceError):
            raise results[0]
        return results[0]
    return results


def _start(circuit, tstep: float, tstop: float, uic: bool, ics) -> _Trajectory:
    """Compile one circuit and find its initial solution."""
    compiled = circuit.compile()
    if uic:
        x = nodeset_vector(circuit, ics or {})
    else:
        compiled.check_dc_connectivity()
        op_x0 = nodeset_vector(circuit, ics) if ics else None
        x = operating_point(circuit, x0=op_x0, check=False).x.copy()
    return _Trajectory(circuit, compiled, x, tstep, tstop)


def _integrate(runs: list[_Trajectory], tstep: float, tstop: float,
               max_newton: int) -> None:
    """Step every trajectory to ``tstop`` in lock-step rounds.

    Each round, every unfinished design sizes its own next step, the plan
    bakes all their companions at once, and one lock-step Newton solves
    them.  Designs that converged advance; the others halve their step (or
    stall, recording a :class:`ConvergenceError`) and retry next round.
    """
    compileds = [run.compiled for run in runs]
    X = np.array([run.samples[0] for run in runs])
    # The plan path bakes the affine (linear + companion) part of each step
    # once — Newton iterations inside a step are then pure vectorized work;
    # the legacy path re-stamps every device per iteration and is kept as the
    # numerical reference.
    if stamping_mode() == "plan":
        stepper = compileds[0].plan() if len(runs) == 1 else StampPlan(compileds)
        state = stepper.init_transient(X)
    else:
        stepper = _LegacyStepper(compileds, X)
        state = stepper.states
    dt_min = tstep * _MIN_DT_FRACTION
    running = list(range(len(runs)))
    while True:
        stepping = [b for b in running if runs[b].plan_step(tstop, dt_min)]
        if not stepping:
            return
        dts = [run.dt for run in runs]
        methods = [run.method for run in runs]
        stepper.begin_step(state, [run.t_new for run in runs], dts, methods)
        # Only stepping systems can converge, so the mask is the accepted set.
        X_new, accepted, _, _ = newton_batch(stepper.assemble_transient, X, stepping,
                                             max_iter=max_newton, vlimit=1.0)
        running = [b for b in stepping if accepted[b] or runs[b].reject(dt_min)]
        if np.count_nonzero(accepted):
            stepper.advance(state, X_new, dts, methods, accepted)
            for b in np.flatnonzero(accepted):
                X[b] = X_new[b]
                runs[b].accept(X[b], tstep)
