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
    """What the engine works from: s, V^T, U^T y, ||y||^2 and N."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    return s, vt, u.T @ targets, float(targets @ targets), design.shape[0]


def coefficients_at(design, targets, kappa):
    s, vt, u_t_y, _, _ = spectrum(design, targets)
    return ridge._coefficients(s, vt, u_t_y, kappa)


def select(design, targets, grid):
    s, _, u_t_y, y_norm_sq, n_rows = spectrum(design, targets)
    return ridge._select(s, u_t_y, y_norm_sq, n_rows, grid)


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
