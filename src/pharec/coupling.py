"""Reduction of fitted observable-space couplings into phase-amplitude space.

The observable coupling G of a pair is pushed through the gradients of the
driven oscillator's inverse transformations, g_phi = dPhi/dtheta * G_theta +
dPhi/dr * G_r (and the Sigma analogue), sampled on a random evaluation grid,
and refitted as a Fourier-Taylor coefficient tensor over (phi_i, sigma_i,
phi_j, sigma_j).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .basis import FittedSeries, PairBasisSpec, pair_row
from .errors import EmptyRadiusData, InsufficientSamples, UnknownPair
from .limit_cycle import LimitCycle, finite_numbers, json_object
from .ridge import ridge_fit
from .transforms import TransformSet
from .vf_reconstruction import NetworkVF, eval_coupling

__all__ = [
    "ReducedCoupling",
    "sample_evaluation_grid",
    "reduced_coupling_samples",
    "fit_reduced_coupling",
    "reduce_network_coupling",
    "heatmap_layout",
]

EQUATIONS = ("phi", "sigma")
SIGMA_MARGIN = 0.1            # relative widening of the trusted sigma range


def sample_evaluation_grid(radius_stats, count: int, seed: int = 0):
    """Random observable evaluation points for coupling reduction.

    ``radius_stats`` is one (r_min, r_max) pair per oscillator;
    reduce_network_coupling passes the extremes of each cycle profile gamma
    on a 256-point angle grid.  Angles are uniform on the circle; radii are uniform in
    [0.8 * r_max, 1.25 * r_min] per oscillator, or in the fallback range
    [0.8 * r_min, 1.25 * r_max] (flagged) when that interval is empty.

    Returns (angles (count, N), radii (count, N), fallback flags (N,)).
    """
    if not radius_stats:
        raise EmptyRadiusData("no radius statistics supplied")
    rng = np.random.default_rng(seed)
    n_osc = len(radius_stats)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(count, n_osc))
    radii = np.empty((count, n_osc))
    fallback = np.zeros(n_osc, dtype=bool)
    for i, (r_min, r_max) in enumerate(radius_stats):
        if not np.isfinite(r_min) or not np.isfinite(r_max) or r_min <= 0:
            raise EmptyRadiusData(f"oscillator {i}: invalid radius statistics")
        lo, hi = 0.8 * r_max, 1.25 * r_min
        if lo >= hi:
            lo, hi = 0.8 * r_min, 1.25 * r_max
            fallback[i] = True
        radii[:, i] = rng.uniform(lo, hi, size=count)
    return angles, radii, fallback


def reduced_coupling_samples(nvf: NetworkVF, transform_sets: list[TransformSet],
                             angles: np.ndarray, radii: np.ndarray,
                             i: int, j: int) -> dict:
    """Reduced coordinates and reduced coupling values of the drive j -> i.

    Points whose inverse amplitude falls outside either oscillator's trusted
    sigma range (widened by 10%) are flagged invalid and excluded from fits.
    """
    th_i, r_i = angles[:, i], radii[:, i]
    th_j, r_j = angles[:, j], radii[:, j]
    g = eval_coupling(nvf, i, j, th_i, r_i, th_j, r_j)
    ti, tj = transform_sets[i], transform_sets[j]
    (phi_i, dphi_dth, dphi_dr), (sig_i, dsig_dth, dsig_dr) = ti.inverse_grad(th_i, r_i)
    g_phi = dphi_dth * g[:, 0] + dphi_dr * g[:, 1]
    g_sig = dsig_dth * g[:, 0] + dsig_dr * g[:, 1]
    phi_j, sig_j = tj.inverse(th_j, r_j)

    def in_range(sig, dom):
        width = dom[1] - dom[0]
        return ((sig >= dom[0] - SIGMA_MARGIN * width)
                & (sig <= dom[1] + SIGMA_MARGIN * width))

    valid = in_range(sig_i, ti.sigma_domain) & in_range(sig_j, tj.sigma_domain)
    return {"phi_i": phi_i, "sigma_i": sig_i, "phi_j": phi_j, "sigma_j": sig_j,
            "g_phi": g_phi, "g_sigma": g_sig, "valid": valid}


def fit_reduced_coupling(samples: dict, reduced_spec: PairBasisSpec) -> dict:
    """Ridge fits of g_phi and g_sigma over the reduced pairwise basis.

    Returns {"phi": FittedSeries, "sigma": FittedSeries, diagnostics}.
    """
    valid = samples["valid"]
    if int(valid.sum()) < 10 * reduced_spec.size:
        raise InsufficientSamples(
            f"need {10 * reduced_spec.size} in-domain samples, have {int(valid.sum())}")
    design = pair_row(reduced_spec, samples["phi_i"][valid], samples["sigma_i"][valid],
                      samples["phi_j"][valid], samples["sigma_j"][valid])
    out = {}
    diag = {}
    for eq, key in (("phi", "g_phi"), ("sigma", "g_sigma")):
        fit = ridge_fit(design, samples[key][valid])
        out[eq] = FittedSeries(reduced_spec, fit.coefficients)
        diag[eq] = {"kappa": fit.kappa, "residual_norm": fit.residual_norm,
                    "rows": int(valid.sum())}
    out["diagnostics"] = diag
    return out


@dataclass(frozen=True)
class ReducedCoupling:
    """Reduced-space coupling tensors plus the per-oscillator (omega, lambda)."""

    n_oscillators: int
    series: dict               # (i, j, equation) -> FittedSeries, each with its spec
    omega: list[float]
    lam: list[float]
    fallback: list[bool]       # per oscillator: radius grid from the fallback range
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_oscillators": self.n_oscillators,
            "series": FittedSeries.to_table(self.series),
            "omega": list(self.omega),
            "lam": list(self.lam),
            "fallback": [bool(f) for f in self.fallback],
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReducedCoupling":
        n = d["n_oscillators"]
        omega, lam = (list(finite_numbers(d[key], n, key)) for key in ("omega", "lam"))
        fallback = d["fallback"]
        if not (isinstance(fallback, list) and len(fallback) == n
                and all(isinstance(f, bool) for f in fallback)):
            raise ValueError(f"fallback must be {n} booleans, not {fallback!r}")
        return cls(n_oscillators=n, omega=omega, lam=lam,
                   series=FittedSeries.from_table(d["series"], n, 2, EQUATIONS, "reduced"),
                   fallback=fallback, diagnostics=json_object(d["diagnostics"], "diagnostics"))


def reduce_network_coupling(nvf: NetworkVF, transform_sets: list[TransformSet],
                            cycles: list[LimitCycle], reduced_spec: PairBasisSpec,
                            count: int, seed: int) -> ReducedCoupling:
    """Fit the reduced coupling tensor for every ordered oscillator pair on
    points around each cycle profile, and record each cycle's omega and lambda."""
    grid = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    angles, radii, fallback = sample_evaluation_grid(
        [(float(g.min()), float(g.max())) for g in (c.gamma_at(grid) for c in cycles)],
        count, seed)
    series, diagnostics = {}, {}
    for i, j in itertools.permutations(range(nvf.n_oscillators), 2):
        samples = reduced_coupling_samples(nvf, transform_sets, angles, radii, i, j)
        fitted = fit_reduced_coupling(samples, reduced_spec)
        for eq in EQUATIONS:
            series[(i, j, eq)] = fitted[eq]
        diagnostics[f"{i}:{j}"] = fitted["diagnostics"]
    return ReducedCoupling(n_oscillators=nvf.n_oscillators, series=series,
                           omega=[c.omega for c in cycles], lam=[c.lam for c in cycles],
                           fallback=[bool(f) for f in fallback], diagnostics=diagnostics)


def heatmap_layout(rc: ReducedCoupling, i: int, j: int, equation: str) -> dict:
    """Panel-structured view of one reduced coupling tensor.

    One panel per (sigma_i power, sigma_j power); panel rows are the driven
    oscillator's own harmonic factors (1, cos k phi_i, sin k phi_i), columns
    the input harmonic factors (cos k phi_j, sin k phi_j).  Row-major
    flattening of the panels in amplitude-pair order is the exact inverse of
    the fit enumeration.
    """
    key = (i, j, equation)
    if key not in rc.series:
        raise UnknownPair(f"no reduced coupling for pair {i}->{j} ({equation})")
    spec, coeffs = rc.series[key].spec, rc.series[key].coefficients
    row_labels = ["1"] + [f"{t} {k}phi_i" for k in range(1, spec.ki_max + 1)
                          for t in ("cos", "sin")]
    col_labels = [f"{t} {k}phi_j" for k in range(1, spec.kj_max + 1)
                  for t in ("cos", "sin")]
    panels = dict(zip(spec.amplitude_pairs(), coeffs.reshape(-1, spec.n_own, spec.n_inp).copy()))
    return {"panels": panels, "row_labels": row_labels, "col_labels": col_labels}
