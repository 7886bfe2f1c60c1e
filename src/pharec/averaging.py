"""Reduced coordinates (phi0, sigma0) from finite-time Fourier/Laplace
averages of simulated observable trajectories.

The amplitude magnitude comes from averaging |rho(t)| e^{-lambda t} over the
last two periods before the deviation rho = r - gamma(theta) hits the
numerical precision floor; its sign is the sign of rho(0).  The phase comes
from the angle of the windowed average of r cos(theta) e^{-i omega t} with
its counter-rotating contamination removed (i.e. of (r/2) e^{i theta}
e^{-i omega t}), anchored so that phi0 = 0 for the on-cycle initial
condition at theta = 0 by subtracting the same average taken along a
reference trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import BasinEscape, TooShort
from .limit_cycle import STEPS_PER_PERIOD, LimitCycle

__all__ = [
    "ObservableDeviation",
    "ReducedSample",
    "observable_deviation",
    "refine_lambda",
    "reduced_coordinates",
    "reduced_coordinates_batch",
]

FLOOR_ABS = 1e-12
# Profile-fit residual enters the floor: below it, rho measures series
# truncation of gamma rather than transverse decay.
FLOOR_GAMMA_FACTOR = 10.0


@dataclass(frozen=True)
class ObservableDeviation:
    """Radial deviation rho(t) with its trusted window of two periods."""

    times: np.ndarray
    rho: np.ndarray
    cutoff_index: int            # last index before the precision floor
    window: tuple[int, int]      # [i1, i2], i2 - i1 spans two periods
    period: float


@dataclass(frozen=True)
class ReducedSample:
    theta0: float
    r0: float
    phi0: float                  # in [0, 2*pi)
    sigma0: float                # scaled amplitude (leading radial response absorbed)
    lambda_used: float


def _precision_floor(cycle: LimitCycle, rho0):
    return np.maximum(np.maximum(FLOOR_ABS, FLOOR_ABS * np.abs(rho0)),
                      FLOOR_GAMMA_FACTOR * cycle.gamma_resid)


def _trusted_window(cycle: LimitCycle, rho: np.ndarray, period_steps: int):
    """Averaging window [i1, i2] of each deviation column (time on axis 0).

    i2 is the last index where |rho| exceeds the precision floor set by
    rho[0]; the window reaches back over the whole periods of ``period_steps``
    that fit, at most two.  ``periods`` counts them.  Where it is 0 (|rho|
    never exceeds the floor, or only within the first period) the window is
    the last two periods of the run.
    """
    n = rho.shape[0] - 1
    above = np.abs(rho) > _precision_floor(cycle, rho[0])
    i2 = n - np.argmax(above[::-1], axis=0)
    periods = np.where(above.any(axis=0), np.minimum(i2 // period_steps, 2), 0)
    i2 = np.where(periods > 0, i2, n)
    return i2 - np.where(periods > 0, periods, 2) * period_steps, i2, periods


def observable_deviation(trajectory: ode.Trajectory, cycle: LimitCycle) -> ObservableDeviation:
    """rho(t) = r(t) - gamma(theta(t)) with the two-period trusted window."""
    if trajectory.times[-1] < 4.0 * cycle.period - 1e-9:
        raise TooShort("need at least four periods of trajectory")
    theta = trajectory.states[..., 0]
    r = trajectory.states[..., 1]
    rho = r - cycle.gamma_at(theta)
    i1, i2, periods = _trusted_window(
        cycle, rho, int(round(cycle.period / trajectory.step_size)))
    if periods < 2:
        raise TooShort("fewer than two periods above the precision floor")
    return ObservableDeviation(times=trajectory.times, rho=rho,
                               cutoff_index=int(i2), window=(int(i1), int(i2)),
                               period=cycle.period)


def refine_lambda(dev: ObservableDeviation, lambda0: float) -> float:
    """Correct lambda0 by the residual log-slope of the deviation decay.

    The slope is taken between the per-period means of log|rho| - lambda0*t
    over the two halves of the trusted window, which suppresses the in-period
    oscillation of the deviation.
    """
    i1, i2 = dev.window
    half = (i2 - i1) // 2
    y = np.log(np.maximum(np.abs(dev.rho[i1:i2]), 1e-300)) - lambda0 * dev.times[i1:i2]
    m1 = float(np.mean(y[:half]))
    m2 = float(np.mean(y[half:2 * half]))
    return lambda0 + (m2 - m1) / dev.period


def _horizon_steps(cycle: LimitCycle, lam: float, rho_max: float) -> int:
    floor = _precision_floor(cycle, rho_max)
    t_decay = np.log(max(rho_max, floor * 10) / floor) / abs(lam)
    duration = float(np.clip(t_decay + 3.0 * cycle.period,
                             6.0 * cycle.period, 100.0 * cycle.period))
    return int(round(duration / cycle.step))


def _window_means(cum: np.ndarray, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """Means over inclusive index windows from a zero-padded cumulative sum."""
    counts = i2 - i1 + 1
    return (np.take_along_axis(cum, i2[None, :] + 1, axis=0)
            - np.take_along_axis(cum, i1[None, :], axis=0))[0] / counts


def reduced_coordinates_batch(vf, cycle: LimitCycle, ics,
                              lam: float | None = None,
                              chunk_size: int = 160) -> list[ReducedSample]:
    """Reduced coordinates for a batch of observable initial conditions.

    ``ics`` has shape (B, 2) with rows (theta0, r0).  All initial conditions
    integrate in lockstep over a shared horizon chosen so every deviation
    decays to the precision floor.
    """
    ics = np.atleast_2d(np.asarray(ics, dtype=float))
    if lam is None:
        lam = cycle.lam
    if lam is None or lam >= 0:
        raise ValueError("need a negative Floquet exponent")
    step = cycle.step
    rho0 = ics[:, 1] - cycle.gamma_at(ics[:, 0])
    n = _horizon_steps(cycle, lam, float(np.max(np.abs(rho0))) if ics.size else 1.0)
    times = np.arange(n + 1) * step
    r_cap = 10.0 * float(np.max(cycle.gamma_at(np.linspace(0, 2 * np.pi, 256))))

    # Reference run from the cycle anchor supplies the phase origin.
    ref = ode.integrate(vf, np.asarray(cycle.anchor), n * step, step)
    phase_factor = np.exp(-1j * cycle.omega * times)
    # Co-rotating part of r cos(theta) e^{-i omega t}: the counter-rotating
    # half (r/2) e^{-i theta} e^{-i omega t} integrates to zero only over an
    # infinite horizon; over the finite window it leaves an O(rho(t1)) phase
    # bias that breaks flow equivariance, so it is subtracted exactly.
    z_ref = 0.5 * ref.states[:, 1] * np.exp(1j * ref.states[:, 0]) * phase_factor
    cum_ref = np.concatenate([[0.0 + 0.0j], np.cumsum(z_ref)])

    out: list[ReducedSample] = []
    for lo in range(0, ics.shape[0], chunk_size):
        chunk = ics[lo:lo + chunk_size]
        traj = ode.integrate(vf, chunk, n * step, step)
        theta = traj.states[..., 0]
        r = traj.states[..., 1]
        if np.any(r >= r_cap) or np.any(r <= 0):
            raise BasinEscape("trajectory left the sandbox around the cycle")
        rho = r - cycle.gamma_at(theta)
        # Strongly contracting cycles may cross the floor in under two
        # periods; average over as many whole periods as fit (up to two).
        i1, i2, periods = _trusted_window(cycle, rho, STEPS_PER_PERIOD)
        on_cycle = periods == 0

        decay = np.exp(-lam * times)[:, None]
        cum_amp = np.concatenate([np.zeros((1, chunk.shape[0])),
                                  np.cumsum(np.abs(rho) * decay, axis=0)])
        z = 0.5 * r * np.exp(1j * theta) * phase_factor[:, None]
        cum_z = np.concatenate([np.zeros((1, chunk.shape[0]), dtype=complex),
                                np.cumsum(z, axis=0)])

        sig = _window_means(cum_amp, i1, i2)
        sig = np.where(on_cycle, 0.0, sig * np.sign(rho[0]))
        z_mean = _window_means(cum_z, i1, i2)
        zr = (np.take_along_axis(cum_ref[:, None], (i2 + 1)[None, :], axis=0)
              - np.take_along_axis(cum_ref[:, None], i1[None, :], axis=0))[0] / (i2 - i1 + 1)
        phi0 = np.mod(np.angle(z_mean) - np.angle(zr), 2.0 * np.pi)
        for b in range(chunk.shape[0]):
            out.append(ReducedSample(theta0=float(chunk[b, 0]), r0=float(chunk[b, 1]),
                                     phi0=float(phi0[b]), sigma0=float(sig[b]),
                                     lambda_used=float(lam)))
    return out


def reduced_coordinates(vf, cycle: LimitCycle, lam: float,
                        theta0: float, r0: float) -> ReducedSample:
    """Reduced coordinates of a single observable initial condition."""
    return reduced_coordinates_batch(vf, cycle, np.array([[theta0, r0]]), lam)[0]
