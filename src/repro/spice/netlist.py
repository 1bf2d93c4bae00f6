"""Circuit container, node mapping and compilation.

A :class:`Circuit` is an ordered collection of devices connected by named
nodes.  ``"0"`` and ``"gnd"`` are the ground aliases.  Before analysis the
circuit is *compiled*: nodes and auxiliary branch currents are assigned
matrix indices, current-controlled sources are linked to their sense
voltage source, and DC connectivity to ground is validated (a node without
any conductive path to ground would make the MNA matrix singular).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .devices.base import Device, DeviceIndex
from .devices.controlled import CCCS, CCVS, VCCS, VCVS
from .devices.diode import Diode
from .devices.mosfet import MOSFET, MOSModel
from .devices.passives import Capacitor, Inductor, Resistor
from .devices.sources import CurrentSource, VoltageSource
from .errors import NetlistError

__all__ = ["Circuit", "CompiledCircuit", "GROUND_NAMES", "active_transform",
           "circuit_transform"]

GROUND_NAMES = frozenset({"0", "gnd", "GND", "vss!", "ground"})

#: device types that provide a DC-conductive path between two of their nodes
_CONDUCTIVE = (Resistor, VoltageSource, Inductor, Diode, VCVS, CCVS)

# Thread-local compile-time transform (see ``circuit_transform``).  Thread-
# local rather than global so concurrent evaluations on the engine's submit
# threads can each apply a *different* scenario without interfering.
_TRANSFORM_STATE = threading.local()


def active_transform():
    """The compile-time circuit transform installed on this thread, or None."""
    return getattr(_TRANSFORM_STATE, "fn", None)


@contextmanager
def circuit_transform(fn):
    """Install a thread-local transform applied to circuits at compile time.

    While the context is active, every :class:`Circuit` compiled *on this
    thread* is passed through ``fn(circuit)`` exactly once, right before
    index assignment.  This is the seam :mod:`repro.scenarios` uses to apply
    process/voltage/temperature corners and mismatch draws to any existing
    circuit problem without touching the circuit classes: the transform
    mutates device parameters (MOSFET models, DC source levels) on the
    freshly built netlist, and the stamping plan then bakes them normally.

    Contexts nest; the previous transform is restored on exit.  A circuit
    remembers which transform it was compiled under, so recompiles after
    netlist edits never re-apply (and thus never double-scale) the same
    transform.
    """
    previous = getattr(_TRANSFORM_STATE, "fn", None)
    _TRANSFORM_STATE.fn = fn
    try:
        yield
    finally:
        _TRANSFORM_STATE.fn = previous


class CompiledCircuit:
    """Index assignment for one circuit: the bridge to the MNA matrices."""

    def __init__(self, circuit: "Circuit"):
        self.circuit = circuit
        self.node_index: dict[str, int] = {}
        for device in circuit.devices:
            for node in device.nodes:
                if node in GROUND_NAMES or node in self.node_index:
                    continue
                self.node_index[node] = len(self.node_index)
        self.num_nodes = len(self.node_index)

        # Branch currents are appended after node voltages.
        self.vsource_branch: dict[str, int] = {}
        self.indices: list[DeviceIndex] = []
        next_branch = self.num_nodes
        own_branches: list[tuple[int, ...]] = []
        for device in circuit.devices:
            branches = tuple(range(next_branch, next_branch + device.num_branches))
            next_branch += device.num_branches
            own_branches.append(branches)
            if isinstance(device, VoltageSource):
                self.vsource_branch[device.name] = branches[0]
        self.size = next_branch

        for device, branches in zip(circuit.devices, own_branches):
            nodes = tuple(self._node(n) for n in device.nodes)
            if isinstance(device, (CCCS, CCVS)):
                sense = self.vsource_branch.get(device.sense)
                if sense is None:
                    raise NetlistError(
                        f"{device.name}: sense source {device.sense!r} not found")
                branches = branches + (sense,)
            self.indices.append(DeviceIndex(nodes=nodes, branches=branches))

        # O(1) name lookups and per-class device lists, built once so hot
        # accessors (OperatingPoint.mosfet_op, source_power, ...) never scan
        # the device list.  Names are unique within a circuit (Circuit.add).
        self.device_map: dict[str, tuple[Device, DeviceIndex]] = {
            device.name: (device, idx)
            for device, idx in zip(circuit.devices, self.indices)}
        self.mosfet_entries: list[tuple[MOSFET, DeviceIndex]] = [
            (device, idx) for device, idx in self.devices_with_indices()
            if isinstance(device, MOSFET)]
        self._plan = None

    def _node(self, name: str) -> int:
        if name in GROUND_NAMES:
            return -1
        return self.node_index[name]

    def node(self, name: str) -> int:
        """Public lookup: matrix index of a node name (-1 for ground)."""
        if name in GROUND_NAMES:
            return -1
        if name not in self.node_index:
            raise NetlistError(f"unknown node: {name!r}")
        return self.node_index[name]

    def voltage(self, x, name: str) -> float:
        """Voltage of node ``name`` in solution vector ``x``."""
        index = self.node(name)
        return 0.0 if index < 0 else float(x[index])

    def branch_current(self, x, source_name: str) -> float:
        """Branch current of voltage source ``source_name`` in ``x``."""
        if source_name not in self.vsource_branch:
            raise NetlistError(f"unknown voltage source: {source_name!r}")
        return float(x[self.vsource_branch[source_name]])

    def check_dc_connectivity(self) -> None:
        """Raise :class:`NetlistError` if any node lacks a DC path to ground."""
        neighbours: dict[int, list[int]] = {
            node_id: [] for node_id in (-1, *self.node_index.values())}
        for device, idx in zip(self.circuit.devices, self.indices):
            if isinstance(device, _CONDUCTIVE):
                a, b = idx.nodes[:2]
            elif isinstance(device, MOSFET):
                a, _, b, _ = idx.nodes  # drain-source channel
            else:
                continue
            neighbours[a].append(b)
            neighbours[b].append(a)
        reachable = {-1}
        stack = [-1]
        while stack:
            for other in neighbours[stack.pop()]:
                if other not in reachable:
                    reachable.add(other)
                    stack.append(other)
        floating = [name for name, node_id in self.node_index.items()
                    if node_id not in reachable]
        if floating:
            raise NetlistError(f"nodes with no DC path to ground: {sorted(floating)}")

    def devices_with_indices(self):
        return zip(self.circuit.devices, self.indices)

    def plan(self):
        """The compiled :class:`~repro.spice.plan.StampPlan` (built lazily).

        The plan bakes linear-device stamps and nonlinear scatter indices, so
        it must be rebuilt whenever the netlist changes — which happens
        automatically because ``Circuit.add`` invalidates the compiled
        circuit itself.  Post-compile mutation of linear device *values*
        (other than independent-source levels, which are re-read on every
        assembly) is outside the stamping-plan contract.
        """
        if self._plan is None:
            from .plan import StampPlan
            self._plan = StampPlan(self)
        return self._plan


class Circuit:
    """An ordered netlist of devices with convenience constructors."""

    def __init__(self, title: str = "circuit"):
        self.title = title
        self.devices: list[Device] = []
        self._names: set[str] = set()
        self._compiled: CompiledCircuit | None = None
        self._transformed = None  # transform already applied to this netlist

    # ------------------------------------------------------------------
    def add(self, device: Device) -> Device:
        """Add a device; names must be unique within the circuit."""
        if device.name in self._names:
            raise NetlistError(f"duplicate device name: {device.name!r}")
        self._names.add(device.name)
        self.devices.append(device)
        self._compiled = None
        return device

    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, name: str) -> Device:
        for device in self.devices:
            if device.name == name:
                return device
        raise KeyError(name)

    def node_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for device in self.devices:
            for node in device.nodes:
                if node not in GROUND_NAMES:
                    seen.setdefault(node)
        return list(seen)

    def compile(self) -> CompiledCircuit:
        """Assign matrix indices (cached until the netlist changes)."""
        if self._compiled is None:
            if not self.devices:
                raise NetlistError("cannot compile an empty circuit")
            fn = active_transform()
            if fn is not None and self._transformed is not fn:
                # one-shot per netlist: recompiles triggered by later edits
                # must not re-scale already-transformed device parameters
                self._transformed = fn
                fn(self)
            self._compiled = CompiledCircuit(self)
        return self._compiled

    # ------------------------------------------------------------------
    # Convenience constructors (return the created device)
    # ------------------------------------------------------------------
    def resistor(self, name, a, b, value) -> Resistor:
        return self.add(Resistor(name, a, b, value))

    def capacitor(self, name, a, b, value, ic=None) -> Capacitor:
        return self.add(Capacitor(name, a, b, value, ic=ic))

    def inductor(self, name, a, b, value, ic=None) -> Inductor:
        return self.add(Inductor(name, a, b, value, ic=ic))

    def vsource(self, name, plus, minus, value=0.0, ac: float = 0.0) -> VoltageSource:
        return self.add(VoltageSource(name, plus, minus, value, ac=ac))

    def isource(self, name, plus, minus, value=0.0, ac: float = 0.0) -> CurrentSource:
        return self.add(CurrentSource(name, plus, minus, value, ac=ac))

    def vcvs(self, name, a, b, c, d, gain) -> VCVS:
        return self.add(VCVS(name, a, b, c, d, gain))

    def vccs(self, name, a, b, c, d, gm) -> VCCS:
        return self.add(VCCS(name, a, b, c, d, gm))

    def cccs(self, name, a, b, sense, gain) -> CCCS:
        return self.add(CCCS(name, a, b, sense, gain))

    def ccvs(self, name, a, b, sense, r) -> CCVS:
        return self.add(CCVS(name, a, b, sense, r))

    def diode(self, name, anode, cathode, **params) -> Diode:
        return self.add(Diode(name, anode, cathode, **params))

    def mosfet(self, name, drain, gate, source, bulk, model: MOSModel,
               w: float, l: float, m: int = 1) -> MOSFET:
        return self.add(MOSFET(name, drain, gate, source, bulk, model, w, l, m))

    # ------------------------------------------------------------------
    def include(self, other: "Circuit", prefix: str, mapping: dict[str, str]) -> None:
        """Merge ``other`` into this circuit.

        Device names gain ``prefix``; nodes are renamed through ``mapping``
        (identity plus prefixing for unmapped internal nodes).  Ground stays
        ground.  This provides light-weight subcircuit instantiation.
        """
        import copy

        for device in other.devices:
            clone = copy.deepcopy(device)
            clone.name = f"{prefix}{device.name}"
            clone.nodes = tuple(self._map_node(n, prefix, mapping) for n in device.nodes)
            if isinstance(clone, (CCCS, CCVS)):
                clone.sense = f"{prefix}{clone.sense}"
            self.add(clone)

    @staticmethod
    def _map_node(node: str, prefix: str, mapping: dict[str, str]) -> str:
        if node in GROUND_NAMES:
            return node
        if node in mapping:
            return mapping[node]
        return f"{prefix}{node}"

    def __repr__(self) -> str:
        return f"Circuit({self.title!r}, devices={len(self.devices)})"
