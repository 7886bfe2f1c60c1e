"""Ridge regression with generalized cross-validation (GCV).

Every fitted map of the pipeline goes through here: the transformation
maps, the network vector field and the reduced coupling tensors (the
limit-cycle profile is a plain least-squares fit).  Each design is factored
together with its targets: a Householder QR of [design | targets], taken
over row blocks so that only one block is copied at a time (TSQR; Demmel,
Grigori, Hoemmen & Langou 2012), leaves a small triangular R.  The SVD of
R's design block gives the design's singular values and right singular
vectors, and R's target block gives U^T y and each target's out-of-span
residual, so U is never formed.  For each target column kappa is the
minimizer, over a log-spaced grid on the design's spectral scale, of the
GCV score residual^2 / tau^2 (Golub, Heath & Wahba 1979), where
tau = N - sum rho_l^2/(rho_l^2 + kappa) is the effective number of residual
degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ZeroDof

__all__ = ["RidgeFit", "ridge_fit", "ridge_fit_multi"]

_RANK_TOL = 1e-14
_QR_ROWS = 8192               # design rows per Householder QR step


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


def _select(s, u_t_y, perp_sq: float, n_rows: int, grid):
    """(gcv, kappa, residual norm) of the GCV minimizer over ``grid``.

    Ties go to the larger kappa; candidates with tau <= 1e-12 are skipped.
    In the SVD frame the in-span part of the residual is shrunk by
    kappa/(rho^2+kappa) and the out-of-span energy ``perp_sq`` passes
    through.  Both are sums of squares, never a difference such as
    ||y||^2 - fitted terms, so nothing cancels at small kappa or for a
    target almost in span; computing tau from the same filter keeps the GCV
    ratio exact for flat spectra.
    """
    best = None
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
    """QR of ``[design | targets]``, then one SVD of R's design block; one
    GCV fit per target column."""
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 2 or targets.ndim != targets_ndim:
        raise ShapeMismatch(f"design must be 2-d and targets {targets_ndim}-d")
    if design.shape[0] != targets.shape[0]:
        raise ShapeMismatch("design rows must match target length")
    n_rows, n_cols = design.shape
    if targets_ndim == 1:
        targets = targets[:, None]
    r = np.empty((0, n_cols + targets.shape[1]))
    for lo in range(0, n_rows, _QR_ROWS):
        hi = lo + _QR_ROWS
        r = np.linalg.qr(np.block([[r], [design[lo:hi], targets[lo:hi]]]), mode="r")
    # design = Q[:, :p] R[:p, :n_cols], and R has zeros below that block.
    p = min(n_rows, n_cols)
    u_r, s, vt = np.linalg.svd(r[:p, :n_cols], full_matrices=False)
    grid = _kappa_grid(s, n_rows, n_cols)
    fits = []
    for y_r in r[:, n_cols:].T:
        u_t_y = u_r.T @ y_r[:p]
        gcv, kappa, resid = _select(s, u_t_y, float(y_r[p:] @ y_r[p:]), n_rows, grid)
        fits.append(RidgeFit(_coefficients(s, vt, u_t_y, kappa), kappa, gcv, resid))
    return fits


def ridge_fit(design: np.ndarray, targets: np.ndarray) -> RidgeFit:
    """GCV ridge fit of one target vector."""
    return _fits(design, targets, 1)[0]


def ridge_fit_multi(design: np.ndarray, targets: np.ndarray) -> list[RidgeFit]:
    """GCV ridge fits of each target column against one design, one QR."""
    return _fits(design, targets, 2)
