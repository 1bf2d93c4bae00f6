"""Small-signal noise analysis.

Every device contributes noise current sources (resistor thermal noise,
MOSFET channel thermal + flicker noise).  At each frequency the adjoint
system ``A^T y = e_out`` is solved once; ``|y_p - y_m|^2`` is then the
squared transfer impedance from a unit current injected between nodes
``(p, m)`` to the output, so the total output voltage noise PSD is

    S_out(f) = sum_j |H_j(f)|^2 S_j(f)

Input-referred noise divides by the squared gain from a designated input
source.  Total RMS noise integrates the PSD over the analysis band.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .. import profile
from ..errors import AnalysisError
from ..plan import stamping_mode
from .ac import _resolve_compiled, _smallsignal_for

__all__ = ["NoiseResult", "noise_analysis"]


class NoiseResult:
    """Output-referred (and optionally input-referred) noise spectra."""

    def __init__(self, freqs: np.ndarray, output_psd: np.ndarray,
                 contributions: dict[str, np.ndarray],
                 gain: np.ndarray | None):
        self.freqs = freqs
        #: output voltage noise PSD, V^2/Hz
        self.output_psd = output_psd
        #: per-noise-source output PSD contributions, V^2/Hz
        self.contributions = contributions
        #: complex input->output gain (None when no input source was given)
        self.gain = gain

    @property
    def input_psd(self) -> np.ndarray:
        """Input-referred noise PSD, V^2/Hz."""
        if self.gain is None:
            raise AnalysisError("noise analysis was run without an input source")
        return self.output_psd / np.maximum(np.abs(self.gain) ** 2, 1e-300)

    def output_rms(self, fmin: float | None = None, fmax: float | None = None) -> float:
        """Integrated RMS output noise over [fmin, fmax] (defaults: whole band)."""
        return self._rms(self.output_psd, fmin, fmax)

    def _rms(self, psd: np.ndarray, fmin, fmax) -> float:
        mask = np.ones(len(self.freqs), dtype=bool)
        if fmin is not None:
            mask &= self.freqs >= fmin
        if fmax is not None:
            mask &= self.freqs <= fmax
        if mask.sum() < 2:
            raise AnalysisError("noise integration needs at least two in-band points")
        return float(np.sqrt(np.trapezoid(psd[mask], self.freqs[mask])))

    def dominant_contributors(self, top: int = 5) -> list[tuple[str, float]]:
        """Noise sources ranked by integrated output variance."""
        totals = {name: float(np.trapezoid(psd, self.freqs))
                  for name, psd in self.contributions.items()}
        ranked = sorted(totals.items(), key=lambda item: item[1], reverse=True)
        return ranked[:top]


def noise_analysis(circuit, op, freqs, output: str | tuple[str, str], *,
                   input_source: str | None = None) -> NoiseResult:
    """Compute output noise at node ``output`` (or differential pair).

    ``input_source`` names an independent source with ``ac != 0`` used to
    compute the gain for input referral.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    compiled = _resolve_compiled(circuit, op)
    sys = _smallsignal_for(op, compiled)

    if isinstance(output, tuple):
        out_p = compiled.node(output[0])
        out_m = compiled.node(output[1])
    else:
        out_p = compiled.node(output)
        out_m = -1
    e_out = np.zeros(compiled.size)
    if out_p >= 0:
        e_out[out_p] += 1.0
    if out_m >= 0:
        e_out[out_m] -= 1.0

    sources = []
    for device, idx in compiled.devices_with_indices():
        sources.extend(device.noise_sources(op.x, idx))
    if not sources:
        raise AnalysisError("circuit has no noise sources")

    want_gain = input_source is not None
    if want_gain and not np.any(np.abs(sys.rhs) > 0):
        raise AnalysisError(f"input source {input_source!r} must have ac != 0")

    if stamping_mode() == "plan":
        return _noise_batched(sys, compiled, freqs, e_out, sources, want_gain)

    output_psd = np.zeros(len(freqs))
    contributions = {src.name: np.zeros(len(freqs)) for src in sources}
    gain = np.zeros(len(freqs), dtype=complex) if want_gain else None

    for row, freq in enumerate(freqs):
        matrix = sys.matrix(2.0 * np.pi * freq)
        t0 = perf_counter()
        adjoint = np.linalg.solve(matrix.T, e_out.astype(complex))
        profile.add("ac_solve_s", perf_counter() - t0)
        profile.add("ac_solves", 1)
        for src in sources:
            yp = adjoint[src.node_plus] if src.node_plus >= 0 else 0.0
            ym = adjoint[src.node_minus] if src.node_minus >= 0 else 0.0
            h_squared = abs(ym - yp) ** 2
            contribution = h_squared * src.psd(freq)
            contributions[src.name][row] = contribution
            output_psd[row] += contribution
        if want_gain:
            t0 = perf_counter()
            response = np.linalg.solve(matrix, sys.rhs)
            profile.add("ac_solve_s", perf_counter() - t0)
            profile.add("ac_solves", 1)
            gain[row] = e_out @ response

    return NoiseResult(freqs, output_psd, contributions, gain)


def _noise_batched(sys, compiled, freqs: np.ndarray, e_out: np.ndarray,
                   sources, want_gain: bool) -> NoiseResult:
    """All frequencies at once: one stacked adjoint solve ``A^T y = e_out``
    (plus one forward solve for the gain), then vectorized transfer-impedance
    and PSD accumulation over the noise sources."""
    n_freq = len(freqs)
    size = compiled.size
    omegas = 2.0 * np.pi * freqs
    matrices = sys.G[None, :, :] + 1j * omegas[:, None, None] * sys.C[None, :, :]

    t0 = perf_counter()
    if n_freq:
        rhs_adj = np.repeat(e_out[None, :, None].astype(complex), n_freq, axis=0)
        adjoint = np.linalg.solve(matrices.transpose(0, 2, 1), rhs_adj)[:, :, 0]
    else:
        adjoint = np.zeros((0, size), dtype=complex)
    gain = None
    if want_gain:
        if n_freq:
            rhs = np.repeat(sys.rhs[None, :, None].astype(complex), n_freq, axis=0)
            gain = np.linalg.solve(matrices, rhs)[:, :, 0] @ e_out
        else:
            gain = np.zeros(0, dtype=complex)
    profile.add("ac_solve_s", perf_counter() - t0)
    profile.add("ac_solves", (2 if want_gain else 1) * n_freq)

    # Transfer impedances: index the adjoint with ground mapped to a zero slot.
    adjoint_aug = np.concatenate(
        [adjoint, np.zeros((n_freq, 1), dtype=complex)], axis=1)
    plus = np.array([src.node_plus for src in sources], dtype=np.intp)
    minus = np.array([src.node_minus for src in sources], dtype=np.intp)
    yp = adjoint_aug[:, np.where(plus < 0, size, plus)]
    ym = adjoint_aug[:, np.where(minus < 0, size, minus)]
    h_squared = np.abs(ym - yp) ** 2                       # (n_freq, n_src)

    # Per-source PSDs over the whole grid; the NoiseSource contract lets
    # ``psd`` broadcast over an ndarray of frequencies (constant PSDs may
    # return a scalar).
    psd = np.empty((n_freq, len(sources)))
    for col, src in enumerate(sources):
        psd[:, col] = np.broadcast_to(
            np.asarray(src.psd(freqs), dtype=np.float64), freqs.shape)

    contribution = h_squared * psd
    contributions = {src.name: contribution[:, col]
                     for col, src in enumerate(sources)}
    return NoiseResult(freqs, contribution.sum(axis=1), contributions, gain)
