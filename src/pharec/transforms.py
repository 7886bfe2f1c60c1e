"""Forward and inverse phase-amplitude transformations fitted from matched
observable/reduced coordinate pairs.

The angle maps are fitted as periodic remainders (phi - theta and
theta - phi, wrapped to (-pi, pi]) so the Fourier-Taylor basis applies; the
linear term is restored on evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import ReducedSample
from .basis import (FittedSeries, SingleBasisSpec, series_eval, series_eval_grad,
                    single_row)
from .errors import InsufficientSamples
from .limit_cycle import LimitCycle, finite_numbers
from .ridge import ridge_fit

__all__ = [
    "TransformSet",
    "generate_ic_grid",
    "fit_transform_set",
    "wrap_angle",
]


@dataclass(frozen=True)
class TransformSet:
    """Fitted maps between observable (theta, r) and reduced (phi, sigma).

    ``inverse_phase`` holds Phi(theta, r) - theta, ``forward_angle`` holds
    K_theta(phi, sigma) - phi; the other two series are the raw amplitude
    maps.  ``r_domain`` and ``sigma_domain`` record the ranges covered by the
    fitting samples.
    """

    inverse_phase: FittedSeries
    inverse_amplitude: FittedSeries
    forward_angle: FittedSeries
    forward_radius: FittedSeries
    r_domain: tuple[float, float]
    sigma_domain: tuple[float, float]

    def inverse(self, theta, r):
        """(Phi, sigma) at (theta, r)."""
        return (np.asarray(theta, dtype=float) + series_eval(self.inverse_phase, theta, r),
                series_eval(self.inverse_amplitude, theta, r))

    def inverse_grad(self, theta, r):
        """(Phi, dPhi/dtheta, dPhi/dr) and (sigma, dsigma/dtheta, dsigma/dr)."""
        val, dth, dr = series_eval_grad(self.inverse_phase, theta, r)
        return ((np.asarray(theta, dtype=float) + val, 1.0 + dth, dr),
                series_eval_grad(self.inverse_amplitude, theta, r))

    def forward(self, phi, sigma):
        """(K_theta, K_r) at (phi, sigma)."""
        return (np.asarray(phi, dtype=float) + series_eval(self.forward_angle, phi, sigma),
                series_eval(self.forward_radius, phi, sigma))

    def to_dict(self) -> dict:
        return {
            "inverse_phase": self.inverse_phase.to_dict(),
            "inverse_amplitude": self.inverse_amplitude.to_dict(),
            "forward_angle": self.forward_angle.to_dict(),
            "forward_radius": self.forward_radius.to_dict(),
            "r_domain": list(self.r_domain),
            "sigma_domain": list(self.sigma_domain),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransformSet":
        return cls(
            inverse_phase=FittedSeries.from_dict(d["inverse_phase"], "single"),
            inverse_amplitude=FittedSeries.from_dict(d["inverse_amplitude"], "single"),
            forward_angle=FittedSeries.from_dict(d["forward_angle"], "single"),
            forward_radius=FittedSeries.from_dict(d["forward_radius"], "single"),
            r_domain=_domain(d, "r_domain"),
            sigma_domain=_domain(d, "sigma_domain"),
        )


def _domain(d: dict, key: str) -> tuple[float, float]:
    """``d[key]`` as (lo, hi); it must be two finite numbers with lo <= hi."""
    lo, hi = finite_numbers(d[key], 2, key)
    if lo > hi:
        raise ValueError(f"{key} must be two finite numbers lo <= hi, not {d[key]!r}")
    return lo, hi


def generate_ic_grid(cycle: LimitCycle, n_angles: int, n_radii: int,
                     radial_span: tuple[float, float]) -> np.ndarray:
    """Observable initial conditions on an angle x relative-radius grid.

    Radii scale the cycle profile: r = u * gamma(theta) for u in the span, so
    the grid follows non-circular cycles.
    """
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    factors = np.linspace(radial_span[0], radial_span[1], n_radii)
    th = np.repeat(angles, n_radii)
    u = np.tile(factors, n_angles)
    return np.stack([th, u * cycle.gamma_at(th)], axis=1)


def wrap_angle(x):
    """Wrap to the branch nearest zero, (-pi, pi]."""
    return -(np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi) - np.pi)


def _check_samples(n_samples: int, angles: np.ndarray, spec: SingleBasisSpec):
    if n_samples < 3 * spec.size:
        raise InsufficientSamples(
            f"need at least {3 * spec.size} samples, got {n_samples}")
    bins = np.unique((np.mod(angles, 2.0 * np.pi) / (2.0 * np.pi) * 20).astype(int))
    if bins.size < 18:
        raise InsufficientSamples("samples cover less than 0.9 of the circle")


def fit_transform_set(samples: list[ReducedSample], spec: SingleBasisSpec) -> TransformSet:
    """Fit the inverse maps over (theta, r) and the forward maps over
    (phi, sigma) from matched samples."""
    th = np.array([s.theta0 for s in samples])
    r = np.array([s.r0 for s in samples])
    phi = np.array([s.phi0 for s in samples])
    sig = np.array([s.sigma0 for s in samples])
    _check_samples(len(samples), th, spec)
    _check_samples(len(samples), phi, spec)
    inverse = single_row(spec, th, r)
    forward = single_row(spec, phi, sig)

    def series(design, target):
        return FittedSeries(spec, ridge_fit(design, target).coefficients)

    return TransformSet(inverse_phase=series(inverse, wrap_angle(phi - th)),
                        inverse_amplitude=series(inverse, sig),
                        forward_angle=series(forward, wrap_angle(th - phi)),
                        forward_radius=series(forward, r),
                        r_domain=(float(r.min()), float(r.max())),
                        sigma_domain=(float(sig.min()), float(sig.max())))
