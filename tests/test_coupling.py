import numpy as np
import pytest

from pharec import coupling
from pharec.basis import FittedSeries, PairBasisSpec, pair_terms
from pharec.errors import EmptyRadiusData, InsufficientSamples, UnknownPair


def test_evaluation_grid_primary_interval():
    angles, radii, fallback = coupling.sample_evaluation_grid(
        [(0.9, 1.1), (0.95, 1.05)], 500, seed=0)
    assert angles.shape == (500, 2) and radii.shape == (500, 2)
    assert not fallback.any()
    # [0.8 * r_max, 1.25 * r_min] per oscillator.
    assert radii[:, 0].min() >= 0.8 * 1.1 and radii[:, 0].max() <= 1.25 * 0.9


def test_evaluation_grid_fallback_when_interval_empty():
    _, radii, fallback = coupling.sample_evaluation_grid([(0.5, 2.0)], 200, seed=1)
    assert fallback[0]
    assert radii[:, 0].min() >= 0.8 * 0.5 and radii[:, 0].max() <= 1.25 * 2.0


def test_evaluation_grid_seeded():
    a1, r1, _ = coupling.sample_evaluation_grid([(0.9, 1.1)], 100, seed=5)
    a2, r2, _ = coupling.sample_evaluation_grid([(0.9, 1.1)], 100, seed=5)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(r1, r2)


def test_invalid_radius_stats_rejected():
    with pytest.raises(EmptyRadiusData):
        coupling.sample_evaluation_grid([], 10)
    with pytest.raises(EmptyRadiusData):
        coupling.sample_evaluation_grid([(0.0, 1.0)], 10)


def test_fit_requires_enough_valid_samples():
    spec = PairBasisSpec(1, 1, 1, "reduced")
    n = 5 * spec.size  # below the 10x requirement
    samples = {key: np.zeros(n) for key in
               ("phi_i", "sigma_i", "phi_j", "sigma_j", "g_phi", "g_sigma")}
    samples["valid"] = np.ones(n, dtype=bool)
    with pytest.raises(InsufficientSamples):
        coupling.fit_reduced_coupling(samples, spec)


def test_fit_recovers_generating_tensor():
    spec = PairBasisSpec(1, 1, 1, "reduced")
    rng = np.random.default_rng(0)
    n = 40 * spec.size
    phi_i = rng.uniform(0, 2 * np.pi, n)
    phi_j = rng.uniform(0, 2 * np.pi, n)
    sig_i = rng.uniform(-0.3, 0.3, n)
    sig_j = rng.uniform(-0.3, 0.3, n)
    g_phi = 0.3 * np.cos(phi_i) * np.sin(phi_j) * (1.0 - sig_i)
    g_sig = 0.3 * np.sin(phi_i) * np.sin(phi_j)
    samples = {"phi_i": phi_i, "sigma_i": sig_i, "phi_j": phi_j,
               "sigma_j": sig_j, "g_phi": g_phi, "g_sigma": g_sig,
               "valid": np.ones(n, dtype=bool)}
    out = coupling.fit_reduced_coupling(samples, spec)
    fs = out["phi"]
    assert fs.coefficient(mi=0, mj=0, own_k=1, own_trig="cos", inp_k=1,
                          inp_trig="sin") == pytest.approx(0.3, abs=1e-6)
    assert fs.coefficient(mi=1, mj=0, own_k=1, own_trig="cos", inp_k=1,
                          inp_trig="sin") == pytest.approx(-0.3, abs=1e-6)
    assert out["sigma"].coefficient(mi=0, mj=0, own_k=1, own_trig="sin",
                                    inp_k=1, inp_trig="sin") \
        == pytest.approx(0.3, abs=1e-6)


def make_reduced(spec, pairs=((1, 0),)):
    rng = np.random.default_rng(3)
    series = {(i, j, eq): FittedSeries(spec, rng.normal(size=spec.size))
              for i, j in pairs for eq in ("phi", "sigma")}
    return coupling.ReducedCoupling(n_oscillators=2, series=series,
                                    omega=[1.0, 1.0], lam=[-2.0, -1.4],
                                    fallback=[False, False])


def test_heatmap_layout_inverts_enumeration():
    spec = PairBasisSpec(2, 2, 2, "reduced")
    rc = make_reduced(spec)
    layout = coupling.heatmap_layout(rc, 1, 0, "phi")
    coeffs = rc.series[(1, 0, "phi")].coefficients
    for t in pair_terms(spec):
        panel = layout["panels"][(t.mi, t.mj)]
        row = 0 if t.own_trig == "1" else 2 * t.own_k - (1 if t.own_trig == "cos" else 0)
        col = 2 * t.inp_k - (1 if t.inp_trig == "cos" else 0) - 1
        assert panel[row, col] == coeffs[t.index]
    assert len(layout["row_labels"]) == spec.n_own
    assert len(layout["col_labels"]) == spec.n_inp


def test_unknown_pair_raises():
    rc = make_reduced(PairBasisSpec(1, 1, 1, "reduced"))
    with pytest.raises(UnknownPair):
        coupling.heatmap_layout(rc, 0, 1, "phi")


def test_reduced_coupling_round_trip():
    rc = make_reduced(PairBasisSpec(2, 1, 1, "reduced"), pairs=((1, 0), (0, 1)))
    again = coupling.ReducedCoupling.from_dict(rc.to_dict())
    assert again.n_oscillators == 2
    assert again.lam == rc.lam
    np.testing.assert_array_equal(again.series[(1, 0, "phi")].coefficients,
                                  rc.series[(1, 0, "phi")].coefficients)
