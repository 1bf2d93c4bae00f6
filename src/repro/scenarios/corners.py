"""Declarative PVT corner descriptions.

A :class:`Corner` names one process/voltage/temperature operating point as
a set of *transform parameters* — MOSFET transconductance scales and
threshold shifts per polarity, a supply-level scale, and an ambient
temperature — that :mod:`repro.scenarios.transform` applies to any circuit
netlist at compile time.  A :class:`ScenarioSet` is an ordered, named
collection of corners with constructors for the usual sign-off sets (the
four-corner :meth:`ScenarioSet.typical` and the full
process x voltage x temperature cross product :meth:`ScenarioSet.pvt`).

Corners are frozen dataclasses with sorted tuple fields only, so their
pickle bytes — and therefore the engine content-fingerprints of the corner
variants built from them — are deterministic across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Corner", "ScenarioSet", "process_corner", "PROCESS_CORNERS",
           "REFERENCE_TEMP_C", "DEFAULT_SUPPLIES"]

#: ambient temperature the device models are characterized at [degrees C]
REFERENCE_TEMP_C = 27.0

_KELVIN = 273.15

#: independent voltage sources treated as supplies by ``supply_scale``
#: (matched case-insensitively against the device name)
DEFAULT_SUPPLIES = ("AVDD", "DVDD", "VBAT", "VCC", "VDD", "VDDA", "VDDD",
                    "VSUP")

#: classic five process corners as (nmos kp scale, pmos kp scale,
#: nmos vto shift [V], pmos vto shift [V]) — fast devices have more drive
#: and a lower threshold, slow devices the opposite
PROCESS_CORNERS: dict[str, tuple[float, float, float, float]] = {
    "tt": (1.0, 1.0, 0.0, 0.0),
    "ff": (1.10, 1.10, -0.03, -0.03),
    "ss": (0.90, 0.90, +0.03, +0.03),
    "fs": (1.10, 0.90, -0.03, +0.03),
    "sf": (0.90, 1.10, +0.03, -0.03),
}

#: threshold drift with temperature [V per degree C] (magnitude decreases
#: as the die heats up — the standard first-order Level-1 tempco)
VTO_TEMPCO = 2.0e-3

#: mobility temperature exponent: kp scales as (T/Tref)^-MOBILITY_EXPONENT
MOBILITY_EXPONENT = 1.5


@dataclass(frozen=True)
class Corner:
    """One process/voltage/temperature variant of a circuit.

    All fields are plain scale factors / shifts relative to the nominal
    netlist, so the identity corner (all defaults) leaves a circuit
    untouched.  Temperature effects (mobility derating, threshold drift)
    are derived in :meth:`model_params` rather than stored, so a corner is
    fully described by its declarative fields.
    """

    name: str
    nmos_kp_scale: float = 1.0
    pmos_kp_scale: float = 1.0
    nmos_dvto: float = 0.0
    pmos_dvto: float = 0.0
    supply_scale: float = 1.0
    temp_c: float = REFERENCE_TEMP_C
    supplies: tuple[str, ...] = DEFAULT_SUPPLIES

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("corner needs a non-empty name")
        for label in ("nmos_kp_scale", "pmos_kp_scale", "supply_scale"):
            if getattr(self, label) <= 0:
                raise ValueError(f"{label} must be > 0")
        if self.temp_c <= -_KELVIN:
            raise ValueError(f"temp_c below absolute zero: {self.temp_c}")
        # Sorted, upper-cased tuple: deterministic pickle bytes regardless
        # of the caller's ordering, and case-insensitive name matching.
        object.__setattr__(
            self, "supplies",
            tuple(sorted({str(s).upper() for s in self.supplies})))

    @property
    def is_nominal(self) -> bool:
        """True when this corner leaves the netlist untouched."""
        return (self.nmos_kp_scale == 1.0 and self.pmos_kp_scale == 1.0
                and self.nmos_dvto == 0.0 and self.pmos_dvto == 0.0
                and self.supply_scale == 1.0
                and self.temp_c == REFERENCE_TEMP_C)

    def model_params(self, model: object) -> dict[str, float]:
        """Corner-adjusted ``kp``/``vto`` for one :class:`MOSModel`.

        Combines the process scale/shift for the model's polarity with the
        first-order temperature effects: mobility derating
        ``kp ~ (T/Tref)^-1.5`` and threshold drift ``-2 mV/K``.
        """
        polarity = getattr(model, "polarity", "n")
        if polarity == "p":
            kp_scale, dvto = self.pmos_kp_scale, self.pmos_dvto
        else:
            kp_scale, dvto = self.nmos_kp_scale, self.nmos_dvto
        t_ratio = (self.temp_c + _KELVIN) / (REFERENCE_TEMP_C + _KELVIN)
        kp = float(getattr(model, "kp")) * kp_scale * t_ratio ** (-MOBILITY_EXPONENT)
        vto = (float(getattr(model, "vto")) + dvto
               - VTO_TEMPCO * (self.temp_c - REFERENCE_TEMP_C))
        return {"kp": kp, "vto": vto}

    def describe(self) -> str:
        """Human-oriented one-liner, e.g. ``ss_lo_hot: ss V*0.90 125.0C``."""
        process = "custom"
        for label, params in PROCESS_CORNERS.items():
            if params == (self.nmos_kp_scale, self.pmos_kp_scale,
                          self.nmos_dvto, self.pmos_dvto):
                process = label
                break
        return (f"{self.name}: {process} V*{self.supply_scale:.2f} "
                f"{self.temp_c:.1f}C")


def process_corner(name: str, process: str, *, supply_scale: float = 1.0,
                   temp_c: float = REFERENCE_TEMP_C,
                   supplies: Iterable[str] = DEFAULT_SUPPLIES) -> Corner:
    """A :class:`Corner` from a named process point (tt/ff/ss/fs/sf)."""
    try:
        nmos_kp, pmos_kp, nmos_dvto, pmos_dvto = PROCESS_CORNERS[process]
    except KeyError:
        raise ValueError(
            f"unknown process corner {process!r}; "
            f"pick from {sorted(PROCESS_CORNERS)}") from None
    return Corner(name, nmos_kp_scale=nmos_kp, pmos_kp_scale=pmos_kp,
                  nmos_dvto=nmos_dvto, pmos_dvto=pmos_dvto,
                  supply_scale=supply_scale, temp_c=temp_c,
                  supplies=tuple(supplies))


@dataclass(frozen=True)
class ScenarioSet:
    """An ordered, named collection of :class:`Corner` variants.

    The *first* corner is the set's cheap screening point: adaptive gating
    (see :class:`repro.scenarios.CornerProblem`) evaluates it for every
    design and fans the rest out only for promising ones.  Constructors
    put the nominal corner first for exactly this reason.
    """

    corners: tuple[Corner, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        corners = tuple(self.corners)
        if not corners:
            raise ValueError("ScenarioSet needs at least one corner")
        names = [corner.name for corner in corners]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate corner names: {names}")
        object.__setattr__(self, "corners", corners)

    def __len__(self) -> int:
        return len(self.corners)

    def __iter__(self) -> Iterator[Corner]:
        return iter(self.corners)

    def __getitem__(self, index: int) -> Corner:
        return self.corners[index]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(corner.name for corner in self.corners)

    @staticmethod
    def typical(*, supply_tol: float = 0.10, temp_lo_c: float = -40.0,
                temp_hi_c: float = 125.0) -> "ScenarioSet":
        """The classic 4-corner sign-off set.

        Nominal (tt, nominal supply, 27 C) first, then the three stress
        points that bound most analog metrics in practice: slow devices at
        low supply and high temperature (headroom/speed), fast devices at
        high supply and low temperature (power/stability), and the skewed
        fast-N/slow-P point at low supply (offset/balance).
        """
        return ScenarioSet((
            process_corner("nom", "tt"),
            process_corner("ss_lo_hot", "ss", supply_scale=1.0 - supply_tol,
                           temp_c=temp_hi_c),
            process_corner("ff_hi_cold", "ff", supply_scale=1.0 + supply_tol,
                           temp_c=temp_lo_c),
            process_corner("fs_lo_cold", "fs", supply_scale=1.0 - supply_tol,
                           temp_c=temp_lo_c),
        ))

    @staticmethod
    def pvt(processes: Iterable[str] = ("tt", "ss", "ff"),
            supply_scales: Iterable[float] = (0.9, 1.0, 1.1),
            temps_c: Iterable[float] = (-40.0, 27.0, 125.0)) -> "ScenarioSet":
        """Full process x voltage x temperature cross product.

        The nominal point (tt, 1.0, 27 C) is moved to the front when
        present so it doubles as the gating corner.
        """
        corners = []
        for process in processes:
            for scale in supply_scales:
                for temp in temps_c:
                    label = (f"{process}_v{scale:.2f}_t"
                             + f"{temp:g}".replace("-", "m").replace(".", "p"))
                    corners.append(process_corner(
                        label, process, supply_scale=float(scale),
                        temp_c=float(temp)))
        corners.sort(key=lambda corner: not corner.is_nominal)
        return ScenarioSet(tuple(corners))
