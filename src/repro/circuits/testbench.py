"""Shared testbench helpers: robust spec extraction with graceful fallbacks.

Random sizings routinely produce amplifiers with sub-unity gain or phase
curves that never reach the measurement condition.  Testbenches must return
*fallback numbers* for such designs (so the FoM can rank them) rather than
raising — these wrappers encode the fallbacks.
"""

from __future__ import annotations

import numpy as np

from ..spice import waveform
from ..spice.errors import AnalysisError

__all__ = ["ac_frequencies", "extract_loop_metrics", "settling_metrics"]


def ac_frequencies(fmin: float = 10.0, fmax: float = 1e9, points: int = 61) -> np.ndarray:
    """Standard logarithmic AC grid."""
    return np.logspace(np.log10(fmin), np.log10(fmax), points)


def extract_loop_metrics(freqs: np.ndarray, h: np.ndarray) -> dict[str, float]:
    """DC gain / UGF / phase margin with fallbacks for degenerate responses.

    * gain below 0 dB everywhere: UGF collapses to the low band edge and the
      phase margin to 0 (the design is hopeless, the FoM should see that);
    * gain above 0 dB through the band edge: UGF saturates at the top edge
      and the phase margin is evaluated there.
    """
    gain_db = waveform.dc_gain_db(h)
    mag = waveform.db20(h)
    phase = np.unwrap(np.angle(h)) * 180.0 / np.pi
    phase = phase - phase[0]
    if mag[0] <= 0.0:
        return {"dc_gain_db": gain_db, "ugf_hz": float(freqs[0]), "phase_margin_deg": 0.0}
    try:
        ugf = waveform.unity_gain_frequency(freqs, h)
        pm = 180.0 + float(np.interp(np.log10(ugf), np.log10(freqs), phase))
    except AnalysisError:
        ugf = float(freqs[-1])
        pm = 180.0 + float(phase[-1])
    return {"dc_gain_db": gain_db, "ugf_hz": ugf, "phase_margin_deg": pm}


def settling_metrics(t: np.ndarray, y: np.ndarray, *, t_step: float, target: float,
                     step_size: float, tolerance: float = 0.01) -> dict[str, float]:
    """Settling time to the tolerance band around ``target`` plus the static
    error in percent of the step; a waveform that never settles reports the
    full window (a finite fallback)."""
    window = float(t[-1] - t_step)
    final = waveform.steady_state(y)
    try:
        settle = waveform.settling_time(t, y, final=target,
                                        tolerance=tolerance * abs(step_size) / max(abs(target), 1e-12),
                                        t_start=t_step)
    except AnalysisError:
        settle = window
    static_error_pct = 100.0 * abs(final - target) / max(abs(step_size), 1e-12)
    return {"settling_time_s": float(settle), "static_error_pct": float(static_error_pct)}
