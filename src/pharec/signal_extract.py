"""Phase/radius extraction from raw scalar oscillatory signals.

A minimal analytic-signal front end for measured data: the discrete Hilbert
transform gives instantaneous angle and magnitude, with the edge regions
flagged rather than corrected.  Simulated trials bypass this module entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import hilbert

from .errors import NonUniformSampling, TooShort, ZeroVariance

__all__ = ["RawSignal", "extract_phase_amplitude"]

EDGE_FRACTION = 0.05


@dataclass(frozen=True)
class RawSignal:
    """Uniformly sampled scalar channel."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        dt = np.diff(self.times)
        if dt.size and not (dt[0] > 0 and np.allclose(dt, dt[0], rtol=1e-9, atol=0.0)):
            raise NonUniformSampling("raw signal times must increase in equal steps")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("raw signal contains non-finite values")


def _dominant_frequency(values: np.ndarray, dt: float) -> float:
    spectrum = np.abs(np.fft.rfft(values))
    spectrum[0] = 0.0
    freqs = np.fft.rfftfreq(values.shape[0], dt)
    return float(freqs[int(np.argmax(spectrum))])


def extract_phase_amplitude(signal: RawSignal):
    """Instantaneous (theta, r) of a raw signal via the analytic signal.

    Returns (theta, r, edge_mask) where ``edge_mask`` is True on the first
    and last 5% of samples, whose values are unreliable because of the
    circular convolution underlying the discrete Hilbert transform.
    """
    values = np.asarray(signal.values, dtype=float)
    if np.std(values) == 0.0:
        raise ZeroVariance("constant signal has no phase")
    demeaned = values - values.mean()
    dt = float(signal.times[1] - signal.times[0])
    f0 = _dominant_frequency(demeaned, dt)
    duration = signal.times[-1] - signal.times[0]
    if f0 <= 0 or duration * f0 < 4.0:
        raise TooShort("need at least four oscillation periods")
    analytic = hilbert(demeaned)
    theta = np.angle(analytic)
    r = np.abs(analytic)
    n_edge = max(1, int(EDGE_FRACTION * values.shape[0]))
    edge = np.zeros(values.shape[0], dtype=bool)
    edge[:n_edge] = True
    edge[-n_edge:] = True
    return theta, r, edge
