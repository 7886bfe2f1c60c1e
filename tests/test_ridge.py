import numpy as np
import pytest

from pharec import ridge
from pharec.errors import ShapeMismatch, ZeroDof


def random_problem(seed, n=60, m=12):
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(n, m))
    targets = rng.normal(size=n)
    return design, targets


def spectrum(design, targets):
    """What the engine works from: s, V^T, U^T y, the out-of-span energy
    ||y - U U^T y||^2 and N."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    u_t_y = u.T @ targets
    perp = targets - u @ u_t_y
    return s, vt, u_t_y, float(perp @ perp), design.shape[0]


def coefficients_at(design, targets, kappa):
    s, vt, u_t_y, _, _ = spectrum(design, targets)
    return ridge._coefficients(s, vt, u_t_y, kappa)


def select(design, targets, grid):
    s, _, u_t_y, perp_sq, n_rows = spectrum(design, targets)
    return ridge._select(s, u_t_y, perp_sq, n_rows, grid)


def gcv_at(design, targets, kappa):
    return select(design, targets, [kappa])[0]


def test_zero_kappa_equals_least_squares():
    design, targets = random_problem(0)
    ref, *_ = np.linalg.lstsq(design, targets, rcond=None)
    np.testing.assert_allclose(coefficients_at(design, targets, 0.0), ref, atol=1e-10)


def test_monotone_shrinkage_on_random_problems():
    for seed in range(100):
        design, targets = random_problem(seed, n=30, m=8)
        kappas = np.geomspace(1e-8, 1e3, 12)
        norms = [np.linalg.norm(coefficients_at(design, targets, k)) for k in kappas]
        assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_identity_design_gcv_constant():
    rng = np.random.default_rng(3)
    targets = rng.normal(size=25)
    scores = [gcv_at(np.eye(25), targets, k) for k in np.geomspace(1e-6, 1e6, 20)]
    assert np.ptp(scores) < 1e-10 * scores[0] + 1e-10


def test_gcv_selection_prefers_larger_kappa_on_tie():
    design, targets = random_problem(1)
    gcv, kappa, _ = select(design, targets, np.array([0.5, 0.5, 2.0, 2.0]))
    assert gcv == pytest.approx(gcv_at(design, targets, kappa))
    assert kappa in (0.5, 2.0)
    g05, g20 = gcv_at(design, targets, 0.5), gcv_at(design, targets, 2.0)
    assert kappa == (2.0 if g20 <= g05 else 0.5)
    # On an all-zero design every candidate scores exactly the same.
    zero = np.zeros((10, 3))
    assert gcv_at(zero, targets[:10], 0.5) == gcv_at(zero, targets[:10], 2.0)
    assert select(zero, targets[:10], [0.5, 2.0, 1.0])[1] == 2.0


def test_default_grid_includes_zero_only_when_full_rank_overdetermined():
    design, _ = random_problem(2)
    grid = ridge._kappa_grid(np.linalg.svd(design, compute_uv=False), *design.shape)
    assert grid[0] == 0.0 and grid.shape[0] == 41
    # Rank-deficient: duplicated column.
    bad = np.concatenate([design, design[:, :1]], axis=1)
    grid2 = ridge._kappa_grid(np.linalg.svd(bad, compute_uv=False), *bad.shape)
    assert grid2[0] > 0.0 and grid2.shape[0] == 40


def test_zero_design_gives_zero_coefficients_at_unit_kappa():
    fit = ridge.ridge_fit(np.zeros((10, 3)), np.ones(10))
    assert fit.kappa == 1.0
    assert np.all(fit.coefficients == 0.0)


def test_rank_deficient_design_never_selects_zero_kappa():
    for seed in range(20):
        design, _ = random_problem(seed, n=40, m=6)
        bad = np.concatenate([design, design[:, :2]], axis=1)
        # Targets in the span of the design favour the smallest kappa.
        targets = bad @ np.random.default_rng(seed).normal(size=bad.shape[1])
        fit = ridge.ridge_fit(bad, targets)
        assert fit.kappa > 0.0 and np.all(np.isfinite(fit.coefficients))
        multi = ridge.ridge_fit_multi(bad, np.stack([targets, -targets], axis=1))
        assert all(f.kappa > 0.0 for f in multi)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        ridge.ridge_fit(np.ones((5, 2)), np.ones(4))
    with pytest.raises(ShapeMismatch):
        ridge.ridge_fit_multi(np.ones((5, 2)), np.ones(5))


def test_gcv_zero_dof_raises():
    # Identity design with kappa=0 leaves no residual degrees of freedom.
    with pytest.raises(ZeroDof):
        select(np.eye(4), np.ones(4), [0.0])


def test_multi_fit_matches_single_fits():
    rng = np.random.default_rng(5)
    design = rng.normal(size=(40, 6))
    targets = rng.normal(size=(40, 3))
    multi = ridge.ridge_fit_multi(design, targets)
    for col, fit in enumerate(multi):
        single = ridge.ridge_fit(design, targets[:, col])
        assert fit.kappa == single.kappa
        np.testing.assert_allclose(fit.coefficients, single.coefficients,
                                   atol=1e-12)


def test_selected_kappa_minimizes_gcv_on_grid():
    design, targets = random_problem(7)
    fit = ridge.ridge_fit(design, targets)
    s, *_ = spectrum(design, targets)
    for k in ridge._kappa_grid(s, *design.shape):
        assert fit.gcv_value <= gcv_at(design, targets, float(k)) + 1e-15


def test_out_of_span_residual_is_exact():
    # ||A x|| = 1e5 in span, 1e-5 out of span: ||y||^2 - ||U^T y||^2 would
    # cancel to rounding noise, while R's target block keeps the 1e-5.
    rng = np.random.default_rng(11)
    design = rng.normal(size=(200, 10))
    fitted = design @ rng.normal(size=10)
    fitted *= 1e5 / np.linalg.norm(fitted)
    q = rng.normal(size=200)
    q -= design @ np.linalg.lstsq(design, q, rcond=None)[0]
    q /= np.linalg.norm(q)
    fit = ridge.ridge_fit(design, fitted + 1e-5 * q)
    assert fit.kappa == 0.0
    assert fit.residual_norm == pytest.approx(1e-5, rel=1e-4)
    multi = ridge.ridge_fit_multi(
        design, np.stack([fitted + 1e-5 * q, -fitted + 3e-5 * q], axis=1))
    assert [f.kappa for f in multi] == [0.0, 0.0]
    assert [f.residual_norm for f in multi] == pytest.approx([1e-5, 3e-5], rel=1e-4)


def dense_reference(design, y):
    """(coefficients, kappa, gcv, residual) through a thin SVD of the design,
    with the GCV scan written out and the out-of-span part of y projected
    out explicitly."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    u_t_y = u.T @ y
    perp = y - u @ u_t_y
    best = None
    for k in ridge._kappa_grid(s, *design.shape):
        damp = np.zeros_like(s) if k == 0.0 else k / (s ** 2 + k)
        tau = design.shape[0] - s.size + np.sum(damp)
        if tau <= 1e-12:
            continue
        resid_sq = np.sum((damp * u_t_y) ** 2) + perp @ perp
        gcv = resid_sq / tau ** 2
        if best is None or gcv < best[1] or (gcv == best[1] and k > best[0]):
            best = (k, gcv, np.sqrt(resid_sq))
    k, gcv, resid = best
    filt = 1.0 / s if k == 0.0 else s / (s ** 2 + k)
    return vt.T @ (filt * u_t_y), k, gcv, resid


def block_row_counts():
    """Row counts at the QR's block edges: one block, one block + 1, three
    blocks + 7."""
    rows = ridge._QR_ROWS
    return [rows, rows + 1, 3 * rows + 7]


def reference_designs():
    rng = np.random.default_rng(13)
    # (13, 12): one block with fewer rows than [design | targets] has columns.
    for n, m in [(60, 12), (200, 10), (8192, 12), (8193, 12), (20000, 12),
                 (13, 12)] + [(n, 12) for n in block_row_counts()]:
        design = rng.normal(size=(n, m))
        # Noise of 1 and of 1e-3: a shrunk fit and (near) least squares.
        noise = np.array([[1.0], [1e-3]]) * rng.normal(size=(2, n))
        yield design, design @ rng.normal(size=m) + noise
        # Rank-deficient: duplicated columns.
        bad = np.concatenate([design, design[:, :3]], axis=1)
        yield bad, bad @ rng.normal(size=m + 3) + 0.1 * rng.normal(size=(n, 2)).T
    yield rng.normal(size=(15, 15)), rng.normal(size=(2, 15))        # square
    yield rng.normal(size=(9, 14)), rng.normal(size=(2, 9))          # underdetermined
    yield np.zeros((30, 5)), rng.normal(size=(2, 30))                # all zero
    # Wider than a block, so the first block has fewer rows than R.
    n, m = 2 * ridge._QR_ROWS + 7, ridge._QR_ROWS + 8
    design = rng.normal(size=(n, m))
    yield design, design @ rng.normal(size=m) + rng.normal(size=(2, n))


def test_engine_matches_dense_svd_reference():
    for design, ys in reference_designs():
        fits = [ridge.ridge_fit(design, ys[0])] + ridge.ridge_fit_multi(design, ys.T)
        for fit, y in zip(fits, [ys[0], ys[0], ys[1]]):
            coef, kappa, gcv, resid = dense_reference(design, y)
            # The same grid candidate: the grid scales with s_1^2, which the
            # two factorizations agree on to rounding.
            assert fit.kappa == pytest.approx(kappa, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(fit.coefficients, coef, rtol=1e-9,
                                       atol=1e-9 * np.abs(coef).max())
            assert fit.gcv_value == pytest.approx(gcv, rel=1e-9)
            assert fit.residual_norm == pytest.approx(resid, rel=1e-9)


def test_rerun_is_bitwise_identical():
    rng = np.random.default_rng(17)
    design = rng.normal(size=(20000, 30))
    targets = rng.normal(size=(20000, 2))
    first = ridge.ridge_fit_multi(design, targets)
    again = ridge.ridge_fit_multi(design.copy(), targets.copy())
    for a, b in zip(first, again):
        assert np.array_equal(a.coefficients, b.coefficients)
        assert (a.kappa, a.gcv_value, a.residual_norm) == (
            b.kappa, b.gcv_value, b.residual_norm)


def test_streamed_r_matches_one_shot_qr():
    """The block-by-block R of [design | targets] is the R of one QR of the
    whole matrix, up to the sign of each row; with fewer rows than columns,
    R's rows past the one-shot R's hold only rounding."""
    rng = np.random.default_rng(19)
    n_cols = [12, 12, 12, 12, ridge._QR_ROWS + 8]
    for n, m in zip([13, *block_row_counts(), 2 * ridge._QR_ROWS + 7], n_cols):
        design, targets = rng.normal(size=(n, m)), rng.normal(size=(n, 2))
        r = ridge._r_factor(design, targets)
        ref = np.linalg.qr(np.hstack([design, targets]), mode="r")
        assert r.shape == (m + 2, m + 2) and ref.shape == (min(n, m + 2), m + 2)
        top = r[:len(ref)]
        signs = np.sign(np.diag(top)) * np.sign(np.diag(ref))
        tol = 1e-12 * np.abs(ref).max()
        np.testing.assert_allclose(signs[:, None] * top, ref, rtol=0.0, atol=tol)
        assert np.abs(r[len(ref):]).max(initial=0.0) <= tol


def test_non_finite_design_raises_lin_alg_error():
    """A nan or inf anywhere in the design (the first block or a later one)
    raises LinAlgError, which the CLI maps to exit 3, and no fit comes back."""
    rng = np.random.default_rng(23)
    n = ridge._QR_ROWS + 50
    for row, value in ((3, np.nan), (ridge._QR_ROWS + 20, np.nan), (7, np.inf)):
        design = rng.normal(size=(n, 6))
        design[row, 2] = value
        with pytest.raises(np.linalg.LinAlgError):
            ridge.ridge_fit(design, rng.normal(size=n))
        with pytest.raises(np.linalg.LinAlgError):
            ridge.ridge_fit_multi(design, rng.normal(size=(n, 2)))
