"""Limit-cycle location, period/frequency estimation, radial Fourier profile
and Floquet exponent via the monodromy matrix.

Works on planar vector fields expressed in polar observable coordinates
(theta, r); theta integrates unwrapped, so Poincare-section crossings are
passages of theta through multiples of 2*pi.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from . import ode
from .basis import FittedSeries, SingleBasisSpec, row_slices, single_row
from .errors import ComplexMultiplier, NoConvergence

__all__ = [
    "LimitCycle",
    "find_limit_cycle",
    "floquet_from_monodromy",
]

STEPS_PER_PERIOD = 2000
DEFAULT_N_G = 8
# Points per gamma evaluation slice; a multiple of 4 (see LimitCycle.gamma_at).
_GAMMA_SLICE = 4096


def is_finite_number(x) -> bool:
    """A real number, not a bool, within the float range (no nan or inf, and
    no int too large to convert)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def finite_number(x, what: str, positive: bool = False, nonnegative: bool = False) -> float:
    """``x`` as a float; a ValueError naming ``what`` unless is_finite_number(x),
    x > 0 when ``positive`` and x >= 0 when ``nonnegative``."""
    if not is_finite_number(x) or (positive and x <= 0) or (nonnegative and x < 0):
        sign = " positive" if positive else " non-negative" if nonnegative else ""
        raise ValueError(f"{what} must be a finite{sign} number, not {x!r}")
    return float(x)


def finite_pair(v, what: str) -> tuple[float, float]:
    """``v`` as two floats; a ValueError naming ``what`` unless it is a list of
    two finite numbers."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_finite_number, v))):
        raise ValueError(f"{what} must be two finite numbers, not {v!r}")
    return float(v[0]), float(v[1])


@dataclass(frozen=True)
class LimitCycle:
    """Period, frequency, radial profile gamma(theta) and Floquet data."""

    period: float
    omega: float
    gamma: FittedSeries          # r = gamma(theta), pure harmonic series
    anchor: tuple[float, float]  # on-cycle state at theta = 0
    gamma_resid: float = 0.0     # max |r - gamma(theta)| of the profile fit
    lam: float | None = None
    monodromy: np.ndarray | None = None

    def gamma_at(self, theta) -> np.ndarray:
        """gamma(theta) for any shape; inputs of more than _GAMMA_SLICE points
        go in slices of whole leading-axis rows, with the one-shot bits.

        matmul contracts a basis of two or more leading axes one leading
        index at a time anyway, and BLAS gemv takes a 1-D input's rows in
        groups of four, which _GAMMA_SLICE rows never split.  A lone last row
        would take another BLAS routine, so it joins the slice before it.
        """
        theta = np.asarray(theta, dtype=float)
        q = self.gamma.coefficients
        if theta.size <= _GAMMA_SLICE:
            return single_row(self.gamma.spec, theta, np.ones_like(theta)) @ q
        out = np.empty(theta.shape)
        rows = max(1, _GAMMA_SLICE * len(theta) // theta.size)
        for sl in row_slices(len(theta), rows):
            out[sl] = single_row(self.gamma.spec, theta[sl], np.ones_like(theta[sl])) @ q
        return out

    @property
    def step(self) -> float:
        return self.period / STEPS_PER_PERIOD

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "omega": self.omega,
            "gamma": self.gamma.to_dict(),
            "anchor": [self.anchor[0], self.anchor[1]],
            "gamma_resid": self.gamma_resid,
            "lam": self.lam,
            "monodromy": None if self.monodromy is None else self.monodromy.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LimitCycle":
        theta0, r0 = finite_pair(d["anchor"], "anchor")
        return cls(period=finite_number(d["period"], "period", positive=True),
                   omega=finite_number(d["omega"], "omega", positive=True),
                   gamma=FittedSeries.from_dict(d["gamma"]),
                   anchor=(theta0, finite_number(r0, "anchor radius", positive=True)),
                   gamma_resid=finite_number(d["gamma_resid"], "gamma_resid", nonnegative=True),
                   lam=finite_number(d["lam"], "lam"),
                   monodromy=None if d["monodromy"] is None else np.asarray(d["monodromy"]))


def _rough_period(vf, state) -> tuple[float, np.ndarray]:
    """Coarse period estimate from 2*pi advances of theta after settling."""
    duration, dt = 100.0, 0.02
    for _ in range(5):
        traj = ode.integrate(vf, state, duration, dt)
        theta = traj.states[:, 0]
        half = theta.shape[0] // 2
        # Crossing times of 2*pi multiples in the second half, linear interp.
        th = theta[half:]
        t = traj.times[half:]
        k_lo = np.ceil(th[0] / (2 * np.pi))
        k_hi = np.floor(th[-1] / (2 * np.pi))
        targets = 2 * np.pi * np.arange(k_lo, k_hi + 1)
        if targets.size >= 3:
            idx = np.searchsorted(th, targets)
            idx = np.clip(idx, 1, th.shape[0] - 1)
            frac = (targets - th[idx - 1]) / (th[idx] - th[idx - 1])
            times = t[idx - 1] + frac * dt
            return float(np.mean(np.diff(times))), traj.final_state
        duration *= 2
    raise NoConvergence("could not estimate a rotation period")


def find_limit_cycle(vf, seed_state, n_gamma: int = DEFAULT_N_G) -> LimitCycle:
    """Locate the attracting cycle of a polar vector field.

    Integrates from ``seed_state`` until successive Poincare-section returns
    (theta through multiples of 2*pi, increasing) agree in r within 1e-10,
    then fits the radial profile gamma(theta) over one final period.
    """
    seed_state = np.asarray(seed_state, dtype=float)
    t_est, settled = _rough_period(vf, seed_state)
    step = t_est / STEPS_PER_PERIOD

    state = settled
    t_now = 0.0
    target = 2 * np.pi * np.ceil(state[0] / (2 * np.pi) + 1e-9)
    prev = None        # (time, r) at previous refined crossing
    result = None
    for _ in range(500 * STEPS_PER_PERIOD):
        nxt = ode.rk4_step(vf, state, step)
        if nxt[0] >= target:
            base = state

            def excess(h):
                return ode.rk4_step(vf, base, h)[0] - target

            h = brentq(excess, 0.0, step, xtol=1e-14)
            cross_state = ode.rk4_step(vf, base, h)
            t_cross = t_now + h
            if vf(cross_state)[0] > 0:
                if prev is not None and abs(cross_state[1] - prev[1]) < 1e-10:
                    result = (t_cross - prev[0], cross_state[1])
                    break
                prev = (t_cross, cross_state[1])
            target += 2 * np.pi
        state = nxt
        t_now += step
    if result is None:
        raise NoConvergence("Poincare returns did not converge in 500 periods")

    period, r_star = result
    omega = 2 * np.pi / period
    anchor = np.array([0.0, r_star])
    traj = ode.integrate(vf, anchor, period, period / STEPS_PER_PERIOD)
    spec = SingleBasisSpec(0, n_gamma)
    design = single_row(spec, traj.states[:, 0], np.ones(traj.states.shape[0]))
    coeffs, *_ = np.linalg.lstsq(design, traj.states[:, 1], rcond=None)
    gamma = FittedSeries(spec, coeffs)
    resid = float(np.max(np.abs(design @ coeffs - traj.states[:, 1])))
    return LimitCycle(period=period, omega=omega, gamma=gamma,
                      anchor=(0.0, float(r_star)), gamma_resid=resid)


def floquet_from_monodromy(vf, jacobian, cycle: LimitCycle) -> LimitCycle:
    """Attach the Floquet exponent from one period of the variational flow."""
    tt = ode.integrate_with_tangent(vf, jacobian, np.asarray(cycle.anchor),
                                    cycle.period, cycle.step)
    mono = tt.tangent[-1]
    eigvals = np.linalg.eigvals(mono)
    trivial = int(np.argmin(np.abs(eigvals - 1.0)))
    mult = eigvals[1 - trivial]
    if abs(mult.imag) > 1e-8 * max(1.0, abs(mult.real)) or mult.real <= 0:
        raise ComplexMultiplier(f"nontrivial multiplier {mult} is not positive real")
    lam = float(np.log(mult.real) / cycle.period)
    if lam >= 0:
        raise ComplexMultiplier(f"nontrivial multiplier {mult.real} is not contracting")
    return replace(cycle, lam=lam, monodromy=mono)
