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
                    series_eval, single_row, spec_from_dict)
from .errors import InsufficientCoverage, NonUniformSampling, TooShort
from .limit_cycle import STEPS_PER_PERIOD, LimitCycle
from .ridge import ridge_fit_multi

__all__ = [
    "Trial",
    "TrialSet",
    "NetworkVF",
    "differentiate_trial",
    "simulate_trial_set",
    "fit_network_vf",
    "eval_uncoupled",
    "eval_coupling",
    "eval_network_vf",
]

COMPONENTS = ("theta", "r")
TRIM = 2                      # samples dropped at each end after differencing


@dataclass(frozen=True)
class Trial:
    """One network realization: per-oscillator angle/radius time courses."""

    times: np.ndarray         # (n,)
    theta: np.ndarray         # (n, N)
    r: np.ndarray             # (n, N)

    @property
    def n_oscillators(self) -> int:
        return self.theta.shape[1]


@dataclass(frozen=True)
class TrialSet:
    trials: list
    step: float
    metadata: dict = field(default_factory=dict)

    @property
    def n_oscillators(self) -> int:
        return self.trials[0].n_oscillators


def differentiate_trial(trial: Trial) -> tuple[np.ndarray, np.ndarray]:
    """Second-order finite-difference (dtheta/dt, dr/dt), theta unwrapped.

    Central differences in the interior, one-sided second-order stencils at
    the two ends; output is aligned to the trial's time base.
    """
    if trial.times.shape[0] < 5:
        raise TooShort("need at least 5 samples to differentiate")
    dt = np.diff(trial.times)
    h = dt[0]
    if not np.allclose(dt, h, rtol=1e-9, atol=0.0):
        raise NonUniformSampling("trial time base is not uniform")

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
                       radial_span: tuple[float, float]) -> TrialSet:
    """Simulate coupled-network trials from random initial conditions.

    Initial angles are uniform on the circle; initial radii scale the cycle
    profile by factors uniform in ``radial_span``.  All trials share one time
    base and integrate as a single batch.
    """
    n_osc = spec.n_oscillators
    rng = np.random.default_rng(seed)
    native = models.native_coords(spec.kind)
    th0 = rng.uniform(0.0, 2.0 * np.pi, size=(n_trials, n_osc))
    u0 = rng.uniform(radial_span[0], radial_span[1], size=(n_trials, n_osc))
    r0 = np.stack([u0[:, i] * cycles[i].gamma_at(th0[:, i])
                   for i in range(n_osc)], axis=1)
    polar0 = np.stack([th0, r0], axis=-1)                     # (n_trials, N, 2)

    t_max = max(c.period for c in cycles)
    step = min(c.period for c in cycles) / STEPS_PER_PERIOD
    duration = periods * t_max
    vf = models.network_vf(spec)
    if native == "polar":
        traj = ode.integrate(vf, polar0, duration, step)
        theta = traj.states[:, :, :, 0]
        radius = traj.states[:, :, :, 1]
    else:
        cart0 = np.stack([models.polar_to_cart(polar0[:, i], frames[i])
                          for i in range(n_osc)], axis=1)
        traj = ode.integrate(vf, cart0, duration, step)
        obs = np.stack([models.cart_to_polar(traj.states[:, :, i], frames[i])
                        for i in range(n_osc)], axis=2)
        theta = obs[..., 0]
        radius = obs[..., 1]
    trials = [Trial(times=traj.times, theta=theta[:, p], r=radius[:, p])
              for p in range(n_trials)]
    return TrialSet(trials=trials, step=step,
                    metadata={"kind": spec.kind, "seed": seed,
                              "n_trials": n_trials, "periods": periods})


@dataclass(frozen=True)
class NetworkVF:
    """Fitted uncoupled series plus pairwise coupling series per oscillator."""

    n_oscillators: int
    single_spec: SingleBasisSpec
    pair_spec: PairBasisSpec
    uncoupled: dict            # (i, component) -> FittedSeries
    coupling: dict             # (i, j, component) -> FittedSeries
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_oscillators": self.n_oscillators,
            "single_spec": self.single_spec.to_dict(),
            "pair_spec": self.pair_spec.to_dict(),
            "uncoupled": {f"{i}:{c}": s.to_dict()
                          for (i, c), s in self.uncoupled.items()},
            "coupling": {f"{i}:{j}:{c}": s.to_dict()
                         for (i, j, c), s in self.coupling.items()},
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkVF":
        unc = {}
        for key, s in d["uncoupled"].items():
            i, c = key.split(":")
            unc[(int(i), c)] = FittedSeries.from_dict(s)
        cpl = {}
        for key, s in d["coupling"].items():
            i, j, c = key.split(":")
            cpl[(int(i), int(j), c)] = FittedSeries.from_dict(s)
        return cls(n_oscillators=d["n_oscillators"],
                   single_spec=spec_from_dict(d["single_spec"]),
                   pair_spec=spec_from_dict(d["pair_spec"]),
                   uncoupled=unc, coupling=cpl,
                   diagnostics=d.get("diagnostics", {}))


def _pooled_arrays(trial_set: TrialSet, row_budget: int):
    """Trimmed, decimated (theta, r, dtheta, dr) arrays of shape (rows, N)."""
    th_list, r_list, dth_list, dr_list = [], [], [], []
    for trial in trial_set.trials:
        dth, dr = differentiate_trial(trial)
        sl = slice(TRIM, trial.times.shape[0] - TRIM)
        th_list.append(trial.theta[sl])
        r_list.append(trial.r[sl])
        dth_list.append(dth[sl])
        dr_list.append(dr[sl])
    th = np.concatenate(th_list)
    r = np.concatenate(r_list)
    dth = np.concatenate(dth_list)
    dr = np.concatenate(dr_list)
    stride = max(1, th.shape[0] // row_budget)
    return th[::stride], r[::stride], dth[::stride], dr[::stride]


def _check_coverage(theta: np.ndarray):
    for i in range(theta.shape[1]):
        bins = np.unique((np.mod(theta[:, i], 2.0 * np.pi)
                          / (2.0 * np.pi) * 12).astype(int))
        if bins.size < 10:
            raise InsufficientCoverage(
                f"oscillator {i}: angular coverage below 80% of 12 bins")


def fit_network_vf(trial_set: TrialSet, single_spec: SingleBasisSpec,
                   pair_spec: PairBasisSpec, row_budget: int) -> NetworkVF:
    """Fit the uncoupled-plus-pairwise decomposition of the network field."""
    th, r, dth, dr = _pooled_arrays(trial_set, row_budget)
    _check_coverage(th)
    n_osc = th.shape[1]
    uncoupled, coupling, diagnostics = {}, {}, {}
    for i in range(n_osc):
        others = [j for j in range(n_osc) if j != i]
        # One expression, so no list keeps the row blocks alive through the SVD.
        design = np.concatenate(
            [single_row(single_spec, th[:, i], r[:, i])]
            + [pair_row(pair_spec, th[:, i], r[:, i], th[:, j], r[:, j])
               for j in others], axis=1)
        targets = np.stack([dth[:, i], dr[:, i]], axis=1)
        fits = ridge_fit_multi(design, targets)
        for comp, fit in zip(COMPONENTS, fits):
            q = fit.coefficients
            uncoupled[(i, comp)] = FittedSeries(single_spec, q[:single_spec.size])
            for pos, j in enumerate(others):
                lo = single_spec.size + pos * pair_spec.size
                coupling[(i, j, comp)] = FittedSeries(
                    pair_spec, q[lo:lo + pair_spec.size])
            diagnostics[f"{i}:{comp}"] = {
                "kappa": fit.kappa, "gcv": fit.gcv_value,
                "residual_norm": fit.residual_norm,
                "rows": int(design.shape[0]),
            }
    return NetworkVF(n_oscillators=n_osc, single_spec=single_spec,
                     pair_spec=pair_spec, uncoupled=uncoupled,
                     coupling=coupling, diagnostics=diagnostics)


def eval_uncoupled(nvf: NetworkVF, i: int, theta, radius) -> np.ndarray:
    """Uncoupled (dtheta, dr) of oscillator i; trailing axis of length 2."""
    return np.stack([series_eval(nvf.uncoupled[(i, c)], theta, radius)
                     for c in COMPONENTS], axis=-1)


def eval_coupling(nvf: NetworkVF, i: int, j: int, theta_i, r_i,
                  theta_j, r_j) -> np.ndarray:
    """Coupling contribution of oscillator j to oscillator i's derivatives."""
    return np.stack([series_eval(nvf.coupling[(i, j, c)],
                                 theta_i, r_i, theta_j, r_j)
                     for c in COMPONENTS], axis=-1)


def eval_network_vf(nvf: NetworkVF, states) -> np.ndarray:
    """Full fitted derivatives for network states of shape (..., N, 2)."""
    states = np.asarray(states, dtype=float)
    out = np.empty_like(states)
    for i in range(nvf.n_oscillators):
        total = eval_uncoupled(nvf, i, states[..., i, 0], states[..., i, 1])
        for j in range(nvf.n_oscillators):
            if j != i:
                total = total + eval_coupling(nvf, i, j,
                                              states[..., i, 0], states[..., i, 1],
                                              states[..., j, 0], states[..., j, 1])
        out[..., i, :] = total
    return out
