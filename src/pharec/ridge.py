"""Ridge regression with generalized cross-validation (GCV).

Every fitted map but the limit-cycle profile (plain least squares) goes
through here: the transformation maps, the network vector field and the
reduced coupling tensors.  LAPACK's triangular-pentagonal QR (dtpqrt) folds
[design | targets] into one small triangular R, 1,024 rows at a time, without
factoring R again (TSQR; Demmel, Grigori, Hoemmen & Langou 2012).  The rows
can come as a stream of blocks (``ridge_fit_blocks``), so no caller need hold
its whole design; blocks of whole 1,024-row folds keep one fold's bits.  The
SVD of R's design block gives the design's singular values and right singular
vectors, and R's target block gives U^T y and each target's exact out-of-span
residual, so U is never formed.  Per target column kappa minimizes the GCV
score residual^2 / tau^2 (Golub, Heath & Wahba 1979) over a log-spaced grid
on the design's spectral scale; tau = N - sum rho_l^2/(rho_l^2 + kappa) is
the effective number of residual degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ShapeMismatch, ZeroDof

__all__ = ["RidgeFit", "ridge_fit", "ridge_fit_blocks", "ridge_fit_multi"]

_RANK_TOL = 1e-14
_QR_ROWS = 1024               # rows folded into R per dtpqrt call
_QR_NB = 16                   # dtpqrt's panel width (both from a timing sweep)


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
    """(gcv, kappa, residual norm) of the GCV minimizer over ``grid``; ties go
    to the larger kappa, and candidates with tau <= 1e-12 are skipped.  The
    residual is a sum of squares, never a difference such as ||y||^2 - fitted
    terms: the in-span part is shrunk by kappa/(rho^2+kappa) and the
    out-of-span energy ``perp_sq`` passes through, so nothing cancels; tau
    from the same filter keeps the GCV ratio exact for flat spectra."""
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


def _r_factor(blocks) -> tuple[np.ndarray, int, int]:
    """R of [design | targets] over (design_rows, target_rows) blocks, the design's
    width and the row count; a block before the last must be whole _QR_ROWS folds."""
    r, n_cols, n_rows = None, 0, 0
    for design, targets in blocks:
        design, targets = np.asarray(design, dtype=float), np.asarray(targets, dtype=float)
        if design.ndim != 2 or targets.ndim != 2 or len(design) != len(targets):
            raise ShapeMismatch("need 2-d design and target blocks, rows matching")
        if n_rows % _QR_ROWS:
            raise ValueError(f"a block before the last is not a multiple of {_QR_ROWS} rows")
        if r is None:
            n_cols, width = design.shape[1], design.shape[1] + targets.shape[1]
            r, nb = np.zeros((width, width), order="F"), min(_QR_NB, width)
        for lo in range(0, len(design), _QR_ROWS):
            rows = slice(lo, lo + _QR_ROWS)
            block = np.empty((len(design[rows]), width), order="F")   # LAPACK's order, as is r
            np.concatenate([design[rows], targets[rows]], axis=1, out=block)
            r, _, _, info = lapack.dtpqrt(0, nb, r, block, overwrite_a=1, overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dtpqrt argument {-info} is invalid")
        n_rows += len(design)
    return r, n_cols, n_rows


def ridge_fit_blocks(blocks) -> list[RidgeFit]:
    """GCV ridge fits of each target column over a stream of _r_factor blocks;
    a block's buffer may be refilled once the next block is asked for."""
    r, n_cols, n_rows = _r_factor(blocks)
    # design = Q R[:n_cols, :n_cols]; past N rows its singular values are rounding.
    u_r, s, vt = np.linalg.svd(r[:n_cols, :n_cols], full_matrices=False)
    grid = _kappa_grid(s, n_rows, n_cols)
    fits = []
    for y_r in r[:, n_cols:].T:
        u_t_y = u_r.T @ y_r[:n_cols]
        gcv, kappa, resid = _select(s, u_t_y, float(y_r[n_cols:] @ y_r[n_cols:]), n_rows, grid)
        fits.append(RidgeFit(_coefficients(s, vt, u_t_y, kappa), kappa, gcv, resid))
    return fits


def ridge_fit(design: np.ndarray, targets: np.ndarray) -> RidgeFit:
    """GCV ridge fit of one target vector."""
    return ridge_fit_blocks([(design, np.asarray(targets, dtype=float)[..., None])])[0]


def ridge_fit_multi(design: np.ndarray, targets: np.ndarray) -> list[RidgeFit]:
    """GCV ridge fits of each target column against one design, one QR."""
    return ridge_fit_blocks([(design, targets)])
