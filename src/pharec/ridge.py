"""Ridge regression with generalized cross-validation.

This is the single fitting engine used everywhere: solutions go through the
SVD of the design matrix, and the regularization strength is either fixed or
chosen from a log-spaced candidate grid by minimizing the GCV score
residual^2 / tau^2, where tau is the effective number of residual degrees of
freedom N - sum rho_l^2/(rho_l^2 + kappa).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign, ShapeMismatch, ZeroDof

__all__ = ["RidgeFit", "SvdContext", "svd_context", "ridge_fit",
           "ridge_fit_multi", "gcv_score", "default_kappa_grid"]

_RANK_TOL = 1e-14


@dataclass(frozen=True)
class RidgeFit:
    coefficients: np.ndarray
    kappa: float
    gcv_value: float
    residual_dof: float          # tau = N - sum rho^2/(rho^2 + kappa)
    singular_values: np.ndarray
    residual_norm: float


@dataclass(frozen=True)
class SvdContext:
    """SVD of the design plus projected targets, reusable across kappas."""

    u_t_y: np.ndarray      # U^T y, length min(N, M)
    s: np.ndarray          # singular values, nonincreasing
    vt: np.ndarray         # right singular vectors, (min(N,M), M)
    y_norm_sq: float
    n_rows: int
    n_cols: int


def _svd_contexts(design, targets, targets_ndim: int) -> list[SvdContext]:
    """One SVD of ``design``, projected onto each target column."""
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 2 or targets.ndim != targets_ndim:
        raise ShapeMismatch(f"design must be 2-d and targets {targets_ndim}-d")
    if design.shape[0] != targets.shape[0]:
        raise ShapeMismatch("design rows must match target length")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    columns = [targets] if targets_ndim == 1 else targets.T
    return [SvdContext(u_t_y=u.T @ y, s=s, vt=vt, y_norm_sq=float(y @ y),
                       n_rows=design.shape[0], n_cols=design.shape[1])
            for y in columns]


def svd_context(design: np.ndarray, targets: np.ndarray) -> SvdContext:
    return _svd_contexts(design, targets, 1)[0]


def _solve(ctx: SvdContext, kappa: float):
    """Coefficients, residual norm and tau for one kappa, from the SVD."""
    s = ctx.s
    filt = s / (s ** 2 + kappa)          # rho/(rho^2+kappa); kappa=0 needs care
    if kappa == 0.0:
        filt = np.where(s > 0, np.divide(1.0, s, out=np.zeros_like(s),
                                         where=s > 0), 0.0)
    coef = ctx.vt.T @ (filt * ctx.u_t_y)
    # Residual in the SVD frame: the in-span part is shrunk by
    # kappa/(rho^2+kappa) and the out-of-span energy passes through.  Using
    # the complementary filter directly (instead of ||y||^2 - fitted terms)
    # avoids catastrophic cancellation at small kappa, and computing tau from
    # the same expression keeps the GCV ratio exact for flat spectra.
    if kappa == 0.0:
        damp = np.where(s > 0, 0.0, 1.0)
    else:
        damp = kappa / (s ** 2 + kappa)  # 1 - rho^2/(rho^2+kappa)
    perp_sq = max(ctx.y_norm_sq - float(np.sum(ctx.u_t_y ** 2)), 0.0)
    resid_sq = float(np.sum((damp * ctx.u_t_y) ** 2)) + perp_sq
    tau = (ctx.n_rows - s.size) + float(np.sum(damp))
    return coef, np.sqrt(resid_sq), tau


def gcv_score(ctx: SvdContext, kappa: float) -> float:
    """GCV objective residual^2 / tau^2 for the given regularization."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    _, resid, tau = _solve(ctx, kappa)
    if tau <= 1e-12:
        raise ZeroDof("effective degrees of freedom vanish; GCV undefined")
    return resid ** 2 / tau ** 2


def default_kappa_grid(ctx: SvdContext) -> np.ndarray:
    """40 log-spaced candidates spanning the design's spectral scale.

    kappa = 0 is appended when the design has full column rank, so the exact
    least-squares solution stays reachable.
    """
    s1 = ctx.s[0] if ctx.s.size else 0.0
    if s1 == 0.0:
        return np.array([1.0])
    grid = np.geomspace(1e-10 * s1 ** 2, 1e2 * s1 ** 2, 40)
    rank_floor = _RANK_TOL * max(ctx.n_rows, ctx.n_cols) * s1
    full_rank = ctx.s.size == ctx.n_cols and ctx.s[-1] > rank_floor
    if full_rank and ctx.n_rows > ctx.n_cols:
        grid = np.concatenate([[0.0], grid])
    return grid


def _fit_from_ctx(ctx: SvdContext, kappa: float | None,
                  kappa_grid: np.ndarray | None) -> RidgeFit:
    s1 = ctx.s[0] if ctx.s.size else 0.0
    rank_floor = _RANK_TOL * max(ctx.n_rows, ctx.n_cols) * s1

    def check_degenerate(k):
        if k == 0.0 and (s1 == 0.0 or np.all(ctx.s < rank_floor)):
            raise DegenerateDesign("rank-deficient design with kappa = 0")

    if kappa is not None:
        if kappa < 0:
            raise ValueError("kappa must be nonnegative")
        check_degenerate(kappa)
        coef, resid, tau = _solve(ctx, kappa)
        gcv = resid ** 2 / tau ** 2 if tau > 1e-12 else np.inf
        return RidgeFit(coef, float(kappa), float(gcv), float(tau),
                        ctx.s.copy(), float(resid))

    grid = default_kappa_grid(ctx) if kappa_grid is None else np.asarray(kappa_grid, dtype=float)
    best = None
    for k in grid:
        check_degenerate(float(k))
        coef, resid, tau = _solve(ctx, float(k))
        if tau <= 1e-12:
            continue
        gcv = resid ** 2 / tau ** 2
        # ">= if larger kappa" implements the tie-break toward more shrinkage.
        if best is None or gcv < best[0] or (gcv == best[0] and k > best[1]):
            best = (gcv, float(k), coef, resid, tau)
    if best is None:
        raise ZeroDof("no kappa candidate gives positive degrees of freedom")
    gcv, k, coef, resid, tau = best
    return RidgeFit(coef, k, float(gcv), float(tau), ctx.s.copy(), float(resid))


def ridge_fit(design: np.ndarray, targets: np.ndarray,
              kappa: float | None = None,
              kappa_grid: np.ndarray | None = None) -> RidgeFit:
    """Fit coefficients by ridge regression.

    With ``kappa`` given the regularization is fixed; otherwise candidates
    from ``kappa_grid`` (or the default grid) are scanned and the GCV
    minimizer is kept, ties broken toward larger kappa.
    """
    return _fit_from_ctx(svd_context(design, targets), kappa, kappa_grid)


def ridge_fit_multi(design: np.ndarray, targets: np.ndarray,
                    kappa: float | None = None,
                    kappa_grid: np.ndarray | None = None) -> list[RidgeFit]:
    """Fit several target columns against one design, reusing a single SVD."""
    return [_fit_from_ctx(ctx, kappa, kappa_grid)
            for ctx in _svd_contexts(design, targets, 2)]
