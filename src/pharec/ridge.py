"""Ridge regression with generalized cross-validation (GCV).

Every fitted map of the pipeline goes through here: the transformation
maps, the network vector field and the reduced coupling tensors (the
limit-cycle profile is a plain least-squares fit).  Each design is factored
by one SVD, and for each target column kappa is the minimizer, over a
log-spaced grid on the design's spectral scale, of the GCV score
residual^2 / tau^2, where tau = N - sum rho_l^2/(rho_l^2 + kappa) is the
effective number of residual degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ZeroDof

__all__ = ["RidgeFit", "ridge_fit", "ridge_fit_multi"]

_RANK_TOL = 1e-14


@dataclass(frozen=True)
class RidgeFit:
    coefficients: np.ndarray
    kappa: float
    gcv_value: float
    residual_norm: float


def _kappa_grid(s: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """40 log-spaced candidates spanning the spectral scale, with kappa = 0
    first for a full-rank overdetermined design (so exact least squares
    stays reachable, and kappa = 0 always has s > 0); 1 for a zero design."""
    s1 = s[0] if s.size else 0.0
    if s1 == 0.0:
        return np.array([1.0])
    grid = np.geomspace(1e-10 * s1 ** 2, 1e2 * s1 ** 2, 40)
    full_rank = s.size == n_cols and s[-1] > _RANK_TOL * max(n_rows, n_cols) * s1
    if full_rank and n_rows > n_cols:
        grid = np.concatenate([[0.0], grid])
    return grid


def _coefficients(s, vt, u_t_y, kappa: float) -> np.ndarray:
    filt = 1.0 / s if kappa == 0.0 else s / (s ** 2 + kappa)
    return vt.T @ (filt * u_t_y)


def _select(s, u_t_y, y_norm_sq: float, n_rows: int, grid):
    """(gcv, kappa, residual norm) of the GCV minimizer over ``grid``.

    Ties go to the larger kappa; candidates with tau <= 1e-12 are skipped.
    In the SVD frame the in-span part of the residual is shrunk by
    kappa/(rho^2+kappa) and the out-of-span energy passes through.  Using
    that complementary filter directly (instead of ||y||^2 - fitted terms)
    avoids catastrophic cancellation at small kappa, and computing tau from
    the same expression keeps the GCV ratio exact for flat spectra.
    """
    best = None
    perp_sq = max(y_norm_sq - float(np.sum(u_t_y ** 2)), 0.0)
    for k in grid:
        damp = np.zeros_like(s) if k == 0.0 else k / (s ** 2 + k)
        resid = np.sqrt(float(np.sum((damp * u_t_y) ** 2)) + perp_sq)
        tau = (n_rows - s.size) + float(np.sum(damp))
        if tau <= 1e-12:
            continue
        gcv = resid ** 2 / tau ** 2
        if best is None or gcv < best[0] or (gcv == best[0] and k > best[1]):
            best = (float(gcv), float(k), float(resid))
    if best is None:
        raise ZeroDof("no kappa candidate gives positive degrees of freedom")
    return best


def _fits(design, targets, targets_ndim: int) -> list[RidgeFit]:
    """One SVD of ``design``; one GCV fit per target column."""
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 2 or targets.ndim != targets_ndim:
        raise ShapeMismatch(f"design must be 2-d and targets {targets_ndim}-d")
    if design.shape[0] != targets.shape[0]:
        raise ShapeMismatch("design rows must match target length")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    grid = _kappa_grid(s, *design.shape)
    fits = []
    for y in ([targets] if targets_ndim == 1 else targets.T):
        u_t_y = u.T @ y
        gcv, kappa, resid = _select(s, u_t_y, float(y @ y), design.shape[0], grid)
        fits.append(RidgeFit(_coefficients(s, vt, u_t_y, kappa), kappa, gcv, resid))
    return fits


def ridge_fit(design: np.ndarray, targets: np.ndarray) -> RidgeFit:
    """GCV ridge fit of one target vector."""
    return _fits(design, targets, 1)[0]


def ridge_fit_multi(design: np.ndarray, targets: np.ndarray) -> list[RidgeFit]:
    """GCV ridge fits of each target column against one design, one SVD."""
    return _fits(design, targets, 2)
