"""Network vector-field reconstruction from phase/radius trials.

Time derivatives come from second-order finite differences of the observable
channels; each oscillator's theta- and r-equations are then fitted in one
regularized least-squares problem over the concatenation of its own
single-oscillator basis and one pairwise basis block per other oscillator.
The pairwise blocks contain no input-independent terms, so the split into
uncoupled and coupling series is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models, ode
from .basis import (FittedSeries, PairBasisSpec, SingleBasisSpec, pair_row,
                    row_slices, series_eval, single_row)
from .errors import InsufficientCoverage, NonUniformSampling, TooShort
from .limit_cycle import STEPS_PER_PERIOD, LimitCycle, json_object
from .ridge import ridge_fit_blocks

__all__ = [
    "Trial",
    "NetworkVF",
    "differentiate_trial",
    "simulate_trial_set",
    "pooled_rows",
    "fit_network_vf",
    "eval_uncoupled",
    "eval_coupling",
]

COMPONENTS = ("theta", "r")
TRIM = 2                      # samples dropped at each end after differencing
MIN_SAMPLES = 5               # fewest samples the difference stencils take
_DESIGN_SLICE = 4096          # design rows per basis evaluation and QR fold


@dataclass(frozen=True)
class Trial:
    """One network realization: per-oscillator angle/radius time courses."""

    times: np.ndarray         # (n,)
    theta: np.ndarray         # (n, N)
    r: np.ndarray             # (n, N)

    @property
    def n_oscillators(self) -> int:
        return self.theta.shape[1]


def differentiate_trial(trial: Trial) -> tuple[np.ndarray, np.ndarray]:
    """Second-order finite-difference (dtheta/dt, dr/dt), theta unwrapped.

    Central differences in the interior, one-sided second-order stencils at
    the two ends; output is aligned to the trial's time base.
    """
    if trial.times.shape[0] < MIN_SAMPLES:
        raise TooShort(f"need at least {MIN_SAMPLES} samples to differentiate")
    dt = np.diff(trial.times)
    h = dt[0]
    if not np.allclose(dt, h, rtol=1e-9, atol=0.0):
        raise NonUniformSampling("trial time base is not uniform")
    if not h > 0:
        raise NonUniformSampling(f"trial time step {h} is not positive")

    def diff(x):
        d = np.empty_like(x)
        d[1:-1] = (x[2:] - x[:-2]) / (2.0 * h)
        d[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * h)
        d[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * h)
        return d

    return diff(np.unwrap(trial.theta, axis=0)), diff(trial.r)


def simulate_trial_set(spec: models.ModelSpec, cycles: list[LimitCycle],
                       frames: list[models.ObservableFrame], n_trials: int,
                       periods: float, seed: int,
                       radial_span: tuple[float, float]) -> tuple[list[Trial], float]:
    """Coupled-network trials from random initial conditions, and their step.

    Initial angles are uniform on the circle; initial radii scale the cycle
    profile by factors uniform in ``radial_span``.  All trials share one time
    base and integrate as a single batch.
    """
    n_osc = spec.n_oscillators
    rng = np.random.default_rng(seed)
    th0 = rng.uniform(0.0, 2.0 * np.pi, size=(n_trials, n_osc))
    u0 = rng.uniform(radial_span[0], radial_span[1], size=(n_trials, n_osc))
    r0 = np.stack([u0[:, i] * cycles[i].gamma_at(th0[:, i])
                   for i in range(n_osc)], axis=1)
    polar = models.native_coords(spec.kind) == "polar"

    def each_frame(convert, states):     # (..., N, 2) states, unchanged if polar
        return states if polar else np.stack(
            [convert(states[..., i, :], frames[i]) for i in range(n_osc)], axis=-2)

    step = min(c.period for c in cycles) / STEPS_PER_PERIOD
    traj = ode.integrate(models.network_vf(spec),
                         each_frame(models.polar_to_cart, np.stack([th0, r0], axis=-1)),
                         periods * max(c.period for c in cycles), step)
    obs = each_frame(models.cart_to_polar, traj.states)      # (n, n_trials, N, 2)
    return [Trial(times=traj.times, theta=obs[:, p, :, 0], r=obs[:, p, :, 1])
            for p in range(n_trials)], step


@dataclass(frozen=True)
class NetworkVF:
    """Fitted uncoupled series plus pairwise coupling series per oscillator."""

    n_oscillators: int
    uncoupled: dict            # (i, component) -> FittedSeries, each with its spec
    coupling: dict             # (i, j, component) -> FittedSeries, each with its spec
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_oscillators": self.n_oscillators,
            "uncoupled": FittedSeries.to_table(self.uncoupled),
            "coupling": FittedSeries.to_table(self.coupling),
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkVF":
        n = d["n_oscillators"]
        return cls(n_oscillators=n,
                   uncoupled=FittedSeries.from_table(d["uncoupled"], n, 1, COMPONENTS, "single"),
                   coupling=FittedSeries.from_table(d["coupling"], n, 2, COMPONENTS, "observable"),
                   diagnostics=json_object(d["diagnostics"], "diagnostics"))


def pooled_rows(trials: list[Trial], row_budget: int):
    """Trimmed (theta, r, dtheta, dr) arrays of shape (rows, N): every
    stride-th row of the trials' concatenation, picked trial by trial so
    that only the kept rows are ever concatenated."""
    total = sum(trial.times.shape[0] - 2 * TRIM for trial in trials)
    stride = max(1, total // row_budget)
    kept, offset = [], 0         # offset: trimmed rows of the trials before
    for trial in trials:
        dth, dr = differentiate_trial(trial)
        n = trial.times.shape[0]
        sl = slice(TRIM + (-offset) % stride, n - TRIM, stride)
        kept.append((trial.theta[sl], trial.r[sl], dth[sl], dr[sl]))
        offset += n - 2 * TRIM
    return tuple(np.concatenate(parts) for parts in zip(*kept))


def _check_coverage(theta: np.ndarray):
    for i in range(theta.shape[1]):
        bins = np.unique((np.mod(theta[:, i], 2.0 * np.pi)
                          / (2.0 * np.pi) * 12).astype(int))
        if bins.size < 10:
            raise InsufficientCoverage(
                f"oscillator {i}: angular coverage below 80% of 12 bins")


def fit_network_vf(rows, single_spec: SingleBasisSpec,
                   pair_spec: PairBasisSpec) -> NetworkVF:
    """Fit the uncoupled-plus-pairwise network field to ``pooled_rows`` output."""
    th, r, dth, dr = rows
    _check_coverage(th)
    n_rows, n_osc = th.shape
    uncoupled, coupling, diagnostics = {}, {}, {}
    # One slice buffer (a lone last row joins the slice before it), each slice
    # folded into the ridge QR before the next is filled: no design is whole.
    buf = np.empty((_DESIGN_SLICE + 1, single_spec.size + (n_osc - 1) * pair_spec.size))

    def design_slices(i, blocks):
        for sl in row_slices(n_rows, _DESIGN_SLICE):
            design = buf[:sl.stop - sl.start]
            design[:, :single_spec.size] = single_row(single_spec, th[sl, i], r[sl, i])
            for j, lo in blocks:
                design[:, lo:lo + pair_spec.size] = pair_row(
                    pair_spec, th[sl, i], r[sl, i], th[sl, j], r[sl, j])
            yield design, np.stack([dth[sl, i], dr[sl, i]], axis=1)

    for i in range(n_osc):
        others = [j for j in range(n_osc) if j != i]
        # (oscillator j, first column of its pairwise block)
        blocks = [(j, single_spec.size + pos * pair_spec.size)
                  for pos, j in enumerate(others)]
        fits = ridge_fit_blocks(design_slices(i, blocks))
        for comp, fit in zip(COMPONENTS, fits):
            q = fit.coefficients
            uncoupled[(i, comp)] = FittedSeries(single_spec, q[:single_spec.size])
            for j, lo in blocks:
                coupling[(i, j, comp)] = FittedSeries(
                    pair_spec, q[lo:lo + pair_spec.size])
            diagnostics[f"{i}:{comp}"] = {
                "kappa": fit.kappa, "gcv": fit.gcv_value,
                "residual_norm": fit.residual_norm, "rows": int(n_rows),
            }
    return NetworkVF(n_oscillators=n_osc, uncoupled=uncoupled, coupling=coupling,
                     diagnostics=diagnostics)


def eval_uncoupled(nvf: NetworkVF, i: int, theta, radius) -> np.ndarray:
    """Uncoupled (dtheta, dr) of oscillator i; trailing axis of length 2."""
    return np.stack([series_eval(nvf.uncoupled[(i, c)], theta, radius)
                     for c in COMPONENTS], axis=-1)


def eval_coupling(nvf: NetworkVF, i: int, j: int, theta_i, r_i,
                  theta_j, r_j) -> np.ndarray:
    """Coupling contribution of oscillator j to oscillator i's derivatives."""
    return np.stack([series_eval(nvf.coupling[(i, j, c)], theta_i, r_i, theta_j, r_j)
                     for c in COMPONENTS], axis=-1)
