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
    "ReducedSample",
    "observable_deviation",
    "slope_probe",
    "refine_lambda",
    "reduced_coordinates_batch",
]

FLOOR_ABS = 1e-12
# Profile-fit residual enters the floor: below it, rho measures series
# truncation of gamma rather than transverse decay.
FLOOR_GAMMA_FACTOR = 10.0
# Time steps integrated per lockstep block: half a period, to bound its temporaries.
_BLOCK_STEPS = STEPS_PER_PERIOD // 2


@dataclass(frozen=True)
class ReducedSample:
    theta0: float
    r0: float
    phi0: float                  # in [0, 2*pi)
    sigma0: float                # scaled amplitude (leading radial response absorbed)


def _precision_floor(cycle: LimitCycle, rho0):
    return np.maximum(np.maximum(FLOOR_ABS, FLOOR_ABS * np.abs(rho0)),
                      FLOOR_GAMMA_FACTOR * cycle.gamma_resid)


def _last_above(above: np.ndarray) -> np.ndarray:
    """Index of the last True along axis 0 of each column; -1 where none."""
    last = above.shape[0] - 1 - np.argmax(above[::-1], axis=0)
    return np.where(above.any(axis=0), last, -1)


def _trusted_window(last, n: int):
    """Averaging window [i1, i2] of a run of n steps at the cycle step whose
    |rho| last exceeds the precision floor at index ``last`` (-1: never).

    The window ends there and reaches back over the whole periods that fit,
    at most two; ``periods`` counts them.  Where it is 0 (|rho| never exceeds
    the floor, or only within the first period) the window is the last two
    periods of the run.
    """
    periods = np.where(last >= 0, np.minimum(last // STEPS_PER_PERIOD, 2), 0)
    i2 = np.where(periods > 0, last, n)
    return i2 - np.where(periods > 0, periods, 2) * STEPS_PER_PERIOD, i2, periods


def observable_deviation(states: np.ndarray, cycle: LimitCycle):
    """rho(t) = r(t) - gamma(theta(t)) of (theta, r) ``states`` sampled at the
    cycle step, and its trusted window [i1, i2] of two periods."""
    if (states.shape[0] - 1) * cycle.step < 4.0 * cycle.period - 1e-9:
        raise TooShort("need at least four periods of trajectory")
    rho = states[..., 1] - cycle.gamma_at(states[..., 0])
    i1, i2, periods = _trusted_window(
        _last_above(np.abs(rho) > _precision_floor(cycle, rho[0])), rho.shape[0] - 1)
    if periods < 2:
        raise TooShort("fewer than two periods above the precision floor")
    return rho, (int(i1), int(i2))


def slope_probe(cycle: LimitCycle) -> np.ndarray:
    """The slope route's (k + 1, 2) run of states, row 0 filled with the start
    (theta, r) = (0, 1.2 gamma(0)); k steps reach the precision floor."""
    gamma0 = cycle.gamma_at(0.0)
    k = _horizon_steps(cycle, cycle.lam, float(abs(1.2 * gamma0 - gamma0)))
    probe = np.zeros((k + 1, 2))
    probe[0, 1] = 1.2 * gamma0
    return probe


def refine_lambda(states: np.ndarray, cycle: LimitCycle) -> float:
    """The Floquet exponent from the log-slope of the deviation decay of
    ``states``, a run at the cycle step such as a filled slope_probe.

    The slope is taken between the per-period means of log|rho| over the two
    halves of the trusted window, which suppresses the in-period oscillation
    of the deviation.
    """
    rho, (i1, i2) = observable_deviation(states, cycle)
    half = (i2 - i1) // 2
    y = np.log(np.maximum(np.abs(rho[i1:i2]), 1e-300))
    return (float(np.mean(y[half:2 * half])) - float(np.mean(y[:half]))) / cycle.period


def _horizon_steps(cycle: LimitCycle, lam: float, rho_max: float) -> int:
    floor = _precision_floor(cycle, rho_max)
    t_decay = np.log(max(rho_max, floor * 10) / floor) / abs(lam)
    duration = float(np.clip(t_decay + 3.0 * cycle.period,
                             6.0 * cycle.period, 100.0 * cycle.period))
    return int(round(duration / cycle.step))


class _CumSums:
    """Zero-padded cumulative sums down axis 0 of a stream of row blocks, kept
    in a ring: padded index j, the sum of stream rows 0..j-1, sits in ring row
    j % rows.  It holds what a window of up to two periods ending in the
    latest block needs: two periods and one row before that block, and the
    block.  (The first block is one row longer, but its windows start at
    row 0 or later.)

    np.cumsum runs sequentially down axis 0, so continuing it in place from
    the row before each piece gives the bits of one cumulative sum over the
    whole stream.
    """

    def __init__(self, width: int, dtype=float):
        self.sums = np.zeros((2 * STEPS_PER_PERIOD + 1 + _BLOCK_STEPS, width), dtype)
        self.end = 0                # padded index of the latest sum

    def extend(self, block: np.ndarray):
        """Append ``block``, which must be shorter than the ring."""
        done = 0
        while done < block.shape[0]:
            at = (self.end + 1) % self.sums.shape[0]
            piece = self.sums[at:at + block.shape[0] - done]
            piece[...] = block[done:done + piece.shape[0]]
            piece[0] += self.sums[at - 1]
            np.cumsum(piece, axis=0, out=piece)
            done += piece.shape[0]
            self.end += piece.shape[0]

    def means(self, i1, i2, cols) -> np.ndarray:
        """Means of columns ``cols`` over the inclusive stream windows [i1, i2],
        whose sums must still be in the ring."""
        rows = self.sums.shape[0]
        return (self.sums[(i2 + 1) % rows, cols] - self.sums[i1 % rows, cols]) / (i2 - i1 + 1)


def _blocks(vf, state, n: int, step: float):
    """Lockstep states at time indices 0..n as (first index, states) blocks,
    each integrated over at most _BLOCK_STEPS steps from the last state
    before it."""
    done = 0
    while done < n:
        k = min(_BLOCK_STEPS, n - done)
        states = ode.integrate(vf, state, k * step, step).states
        state = states[-1]
        yield (0, states) if done == 0 else (done + 1, states[1:])
        done += k


def reduced_coordinates_batch(vf, cycle: LimitCycle, ics, probe=None) -> list[ReducedSample]:
    """Reduced coordinates for a batch of observable initial conditions.

    ``ics`` has shape (B, 2) with rows (theta0, r0).  They integrate in one
    lockstep batch, behind a reference run from the cycle anchor in column 0,
    over a shared horizon chosen so every deviation decays to the precision
    floor.  The batch streams through time in blocks: the averages come from
    running cumulative sums kept in a ring of two periods and one block, so
    memory does not grow with the horizon.

    ``probe``, a (k + 1, 2) float array whose row 0 is a start state, gets
    rows 1..k filled with its RK4 run at the cycle step, with the bits of a
    one-state run: one more batch column, which the averages never see,
    continued alone past the batch horizon.
    """
    ics = np.atleast_2d(np.asarray(ics, dtype=float))
    lam = cycle.lam
    if lam is None or lam >= 0:
        raise ValueError("need a negative Floquet exponent")
    step = cycle.step
    rho0 = ics[:, 1] - cycle.gamma_at(ics[:, 0])
    n = _horizon_steps(cycle, lam, float(np.max(np.abs(rho0))) if ics.size else 1.0)
    r_cap = 10.0 * float(np.max(cycle.gamma_at(np.linspace(0, 2 * np.pi, 256))))
    b = ics.shape[0]

    # Cumulative sums of |rho| e^{-lambda t} (initial conditions) and of z
    # (reference run first).
    cum_amp, cum_z = _CumSums(b), _CumSums(b + 1, complex)
    last = np.full(b, -1)
    amp_mean, z_mean, zr = np.zeros(b), np.zeros(b, complex), np.zeros(b, complex)
    start = [[cycle.anchor], ics] + ([] if probe is None else [probe[:1]])
    for lo, states in _blocks(vf, np.concatenate(start), n, step):
        hi = lo + states.shape[0]
        if probe is not None:
            rows = probe[lo:hi]
            rows[...] = states[:rows.shape[0], -1]
            states = states[:, :-1]
        theta, r = states[..., 0], states[..., 1]
        if np.any(r[:, 1:] >= r_cap) or np.any(r[:, 1:] <= 0):
            raise BasinEscape("trajectory left the sandbox around the cycle")
        rho = r[:, 1:] - cycle.gamma_at(theta[:, 1:])
        if lo == 0:
            floor, sign = _precision_floor(cycle, rho[0]), np.sign(rho[0])
        rho = np.abs(rho)
        # Strongly contracting cycles may cross the floor in under two
        # periods; average over as many whole periods as fit (up to two).
        hit = _last_above(rho > floor)
        last = np.where(hit >= 0, lo + hit, last)
        times = np.arange(lo, hi) * step
        # Co-rotating part of r cos(theta) e^{-i omega t}: the
        # counter-rotating half (r/2) e^{-i theta} e^{-i omega t} integrates
        # to zero only over an infinite horizon; over the finite window it
        # leaves an O(rho(t1)) phase bias that breaks flow equivariance, so it
        # is subtracted exactly.
        z = 0.5 * r * np.exp(1j * theta) * np.exp(-1j * cycle.omega * times)[:, None]
        cum_amp.extend(rho * np.exp(-lam * times)[:, None])
        cum_z.extend(z)
        del rho, z

        # Windows ending in this block are final unless a later block finds
        # |rho| above the floor again.
        i1, i2, periods = _trusted_window(last, n)
        done = np.flatnonzero((i2 >= lo) & (i2 < hi))
        w1, w2 = i1[done], i2[done]
        amp_mean[done] = cum_amp.means(w1, w2, done)
        z_mean[done] = cum_z.means(w1, w2, done + 1)
        zr[done] = cum_z.means(w1, w2, 0)

    if probe is not None and probe.shape[0] > n + 1:
        probe[n:] = ode.integrate(vf, probe[n], (probe.shape[0] - 1 - n) * step, step).states
    sig = np.where(periods == 0, 0.0, amp_mean * sign)
    phi0 = np.mod(np.angle(z_mean) - np.angle(zr), 2.0 * np.pi)
    return [ReducedSample(theta0=float(ics[k, 0]), r0=float(ics[k, 1]),
                          phi0=float(phi0[k]), sigma0=float(sig[k]))
            for k in range(b)]
