"""End-to-end acceptance checks over the four benchmark models.

Each test covers one headline tolerance; the heavy lifting is done once by
the session-scoped pipeline runs in conftest.
"""

import os

import numpy as np
import pytest

from conftest import MODEL_KINDS, report_row
from pharec import averaging, coupling, models, ode, pipeline, ridge, serialize
from pharec.basis import PairBasisSpec, pair_row


def assert_row(run, name):
    row = report_row(run, name)
    assert row["pass"], f"{name}: value {row['value']} exceeds {row['bound']}"
    return row


def test_floquet_exponents_match_known_decay_rates(pipeline_runs):
    for kind in ("radial_isochron_clock", "canonical"):
        run = pipeline_runs[kind]
        for i in range(2):
            assert_row(run, f"lambda_monodromy_osc{i}")   # within 1%
            assert_row(run, f"lambda_slope_osc{i}")       # within 0.5%
    for kind in MODEL_KINDS:
        for i in range(2):
            assert_row(pipeline_runs[kind], f"lambda_routes_osc{i}")  # 1%


def test_inverse_amplitude_transform_matches_closed_form(pipeline_runs):
    for kind in ("radial_isochron_clock", "canonical"):
        for i in range(2):
            assert_row(pipeline_runs[kind], f"sigma_transform_osc{i}")


def test_inverse_phase_transform_matches_closed_form(pipeline_runs):
    for kind in ("radial_isochron_clock", "canonical"):
        for i in range(2):
            assert_row(pipeline_runs[kind], f"phi_transform_osc{i}")


def test_invariance_equation_residuals_small(pipeline_runs):
    for kind in MODEL_KINDS:
        for i in range(2):
            assert_row(pipeline_runs[kind], f"pde_phi_osc{i}")
            assert_row(pipeline_runs[kind], f"pde_sigma_osc{i}")


def test_forward_inverse_composition_is_identity(pipeline_runs):
    for kind in MODEL_KINDS:
        for i in range(2):
            assert_row(pipeline_runs[kind], f"composition_osc{i}")


def test_uncoupled_vector_field_reconstruction(pipeline_runs):
    for kind in MODEL_KINDS:
        run = pipeline_runs[kind]
        assert run.config.n_trials == 100
        for i in range(2):
            assert_row(run, f"vf_uncoupled_osc{i}_theta")
            assert_row(run, f"vf_uncoupled_osc{i}_r")
    for i in range(2):
        assert_row(pipeline_runs["radial_isochron_clock"],
                   f"vf_radial_linear_osc{i}")
        assert_row(pipeline_runs["radial_isochron_clock"],
                   f"vf_radial_cubic_osc{i}")


def test_directionality_recovered_in_both_spaces(pipeline_runs):
    for kind in MODEL_KINDS:
        run = pipeline_runs[kind]
        assert_row(run, "directionality_observable_0<-1")
        assert_row(run, "directionality_reduced_0<-1")


def oracle_reduced_fit(kind):
    """Reduced coupling fitted from analytic transforms and the exact
    observable coupling functions, bypassing every estimation stage."""
    spec = models.default_spec(kind)
    eps = spec.coupling[1, 0]
    rng = np.random.default_rng(11)
    n = 6000
    th = rng.uniform(0, 2 * np.pi, size=(n, 2))
    r = rng.uniform(0.85, 1.2, size=(n, 2))
    th_i, r_i = th[:, 1], r[:, 1]
    th_j, r_j = th[:, 0], r[:, 0]
    sig = (r ** 2 - 1.0) / (2.0 * r ** 2) if kind == "radial_isochron_clock" \
        else (1.0 - 1.0 / r ** 2) / 2.0
    if kind == "radial_isochron_clock":
        g_th = eps * r_j * np.sin(th_j) * np.cos(th_i) / r_i
        g_r = eps * r_j * np.sin(th_j) * np.sin(th_i)
        phi = th
        g_phi = g_th
    else:
        a = np.asarray(spec.params["a"])
        g_th = -eps * r_j * np.cos(th_j) * np.sin(th_i) / r_i
        g_r = eps * r_j * np.cos(th_j) * np.cos(th_i)
        phi = th + a * np.log(r)
        g_phi = g_th + a[1] / r_i * g_r
    g_sig = g_r / r_i ** 3
    # Amplitude order 4: the exact coupling has sigma^3 content over this
    # annulus, and a lower-order fit aliases it onto the tabled coefficients.
    reduced = PairBasisSpec(4, 2, 2, "reduced")
    design = pair_row(reduced, phi[:, 1], sig[:, 1], phi[:, 0], sig[:, 0])
    return spec, reduced, {
        "phi": ridge.ridge_fit(design, g_phi).coefficients,
        "sigma": ridge.ridge_fit(design, g_sig).coefficients,
    }


def test_reduced_coupling_structure(pipeline_runs):
    # Driven-clock phase coupling: dominant first-harmonic product term with
    # coefficient equal to the coupling strength, within 10% end to end.
    run = pipeline_runs["radial_isochron_clock"]
    assert_row(run, "reduced_main_1<-0")
    rc = coupling.ReducedCoupling.from_dict(serialize.read_json(
        os.path.join(run.out_dir, "reduced_coupling.json"), "reduced_coupling"))
    fs = rc.series[(1, 0, "phi")]
    eps = 0.3
    main = fs.coefficient(mi=0, mj=0, own_k=1, own_trig="cos", inp_k=1,
                          inp_trig="sin")
    assert main == pytest.approx(eps, rel=0.10)
    layout = coupling.heatmap_layout(rc, 1, 0, "phi")
    panel = np.abs(layout["panels"][(0, 0)])
    assert panel.max() == pytest.approx(abs(main))  # dominant entry
    # First-order amplitude sign pattern: 1 - sigma_i + sigma_j.
    c_i = fs.coefficient(mi=1, mj=0, own_k=1, own_trig="cos", inp_k=1,
                         inp_trig="sin")
    c_j = fs.coefficient(mi=0, mj=1, own_k=1, own_trig="cos", inp_k=1,
                         inp_trig="sin")
    assert main > 0 and c_i < 0 and c_j > 0

    # Analytic-oracle route reproduces the closed-form tensors within 5%.
    from pharec.basis import pair_terms
    for kind in ("radial_isochron_clock", "canonical"):
        spec, reduced, coeffs = oracle_reduced_fit(kind)
        tables = models.analytic_reduced_coupling_terms(spec, 1, 0)
        eps = spec.coupling[1, 0]
        terms = pair_terms(reduced)
        for eq in ("phi", "sigma"):
            for (mi, mj), entries in tables[eq].items():
                for (own, inp), want in entries.items():
                    if abs(want) < 0.1 * eps:
                        continue
                    own_k = 0 if own == "1" else 1
                    hit = [t for t in terms
                           if (t.mi, t.mj, t.own_k, t.own_trig, t.inp_k,
                               t.inp_trig) == (mi, mj, own_k, own, 1, inp)]
                    got = coeffs[eq][hit[0].index]
                    assert got == pytest.approx(want, rel=0.05), \
                        f"{kind} {eq} ({mi},{mj}) {own}*{inp}"

    # Full pipeline reproduces the same tensors within 15%.
    for kind in ("radial_isochron_clock", "canonical"):
        assert_row(pipeline_runs[kind], "reduced_table_1<-0")


def test_relaxation_coupling_is_near_rank_one(pipeline_runs):
    row = assert_row(pipeline_runs["van_der_pol"], "factorization_1<-0")
    assert row["value"] >= 0.8


def test_regularization_unit_properties():
    def spectrum(design, y):
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        return s, vt, u.T @ y

    rng = np.random.default_rng(0)
    # kappa = 0 equals ordinary least squares.
    design = rng.normal(size=(50, 8))
    targets = rng.normal(size=50)
    coef = ridge._coefficients(*spectrum(design, targets), 0.0)
    ref, *_ = np.linalg.lstsq(design, targets, rcond=None)
    assert np.abs(coef - ref).max() < 1e-10
    # Monotone shrinkage on 100 random problems.
    for seed in range(100):
        r2 = np.random.default_rng(seed)
        d = r2.normal(size=(25, 6))
        y = r2.normal(size=25)
        norms = [np.linalg.norm(ridge._coefficients(*spectrum(d, y), k))
                 for k in np.geomspace(1e-6, 1e3, 10)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))
    # Identity design: the selection score is constant in kappa.  It spans
    # every target, so no energy lies out of span.
    y = rng.normal(size=30)
    s, _, u_t_y = spectrum(np.eye(30), y)
    scores = [ridge._select(s, u_t_y, 0.0, 30, [k])[0]
              for k in np.geomspace(1e-8, 1e8, 25)]
    assert np.ptp(scores) < 1e-10


def test_averaging_flow_equivariance(pipeline_runs):
    rng = np.random.default_rng(21)
    for kind in MODEL_KINDS:
        run = pipeline_runs[kind]
        frames, cycles = pipeline._load(run.config, "limit_cycle")
        vfs = pipeline._oscillator_fields(run.config, frames)
        cycle, vf = cycles[0], vfs[0]
        t = int(round(0.37 * 2000)) * cycle.step
        th0 = rng.uniform(0, 2 * np.pi, 5)
        u0 = rng.uniform(0.92, 1.12, 5)
        ics = np.stack([th0, u0 * cycle.gamma_at(th0)], axis=1)
        start = averaging.reduced_coordinates_batch(vf, cycle, ics)
        moved = ode.integrate(vf, ics, t, cycle.step).final_state
        moved[:, 0] = np.mod(moved[:, 0], 2 * np.pi)
        end = averaging.reduced_coordinates_batch(vf, cycle, moved)
        for s0, st in zip(start, end):
            dphi = np.mod(st.phi0 - s0.phi0 - cycle.omega * t + np.pi,
                          2 * np.pi) - np.pi
            assert abs(dphi) < 1e-3, kind
            assert abs(st.sigma0 - s0.sigma0 * np.exp(cycle.lam * t)) < 1e-3, kind


def artifact_bytes(out_dir):
    snapshot = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            snapshot[os.path.relpath(path, out_dir)] = open(path, "rb").read()
    return snapshot


def test_end_to_end_determinism_and_runtime(pipeline_runs):
    assert pipeline_runs["total_seconds"] < 30 * 60
    run = pipeline_runs["radial_isochron_clock"]
    before = artifact_bytes(run.out_dir)
    report = pipeline.run_pipeline(run.config)
    assert report["pass"]
    after = artifact_bytes(run.out_dir)
    assert before.keys() == after.keys()
    for name in before:
        assert before[name] == after[name], f"{name} changed between reruns"
