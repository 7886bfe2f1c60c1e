import tracemalloc

import numpy as np
import pytest

from pharec import pipeline, ridge
from pharec import vf_reconstruction as vfr
from pharec.basis import PairBasisSpec, SingleBasisSpec
from pharec.errors import InsufficientCoverage, NonUniformSampling, TooShort


def synthetic_trial(n=200, step=0.01, n_osc=2):
    t = np.arange(n) * step
    theta = np.stack([1.3 * t + 0.2, 0.9 * t + 1.0], axis=1)[:, :n_osc]
    r = np.stack([1.0 + 0.1 * np.sin(t), 1.1 + 0.05 * np.cos(t)], axis=1)[:, :n_osc]
    return vfr.Trial(times=t, theta=theta, r=r)


def network_derivatives(nvf, states):
    """Fitted (dtheta, dr) of every oscillator at network states (N, 2): the
    uncoupled series plus the coupling series of every other oscillator."""
    out = np.empty_like(states)
    for i in range(nvf.n_oscillators):
        out[i] = vfr.eval_uncoupled(nvf, i, states[i, 0], states[i, 1])
        for j in range(nvf.n_oscillators):
            if j != i:
                out[i] += vfr.eval_coupling(nvf, i, j, *states[i], *states[j])
    return out


def test_differentiation_second_order():
    trial = synthetic_trial()
    dth, dr = vfr.differentiate_trial(trial)
    t = trial.times
    np.testing.assert_allclose(dth[:, 0], 1.3, atol=1e-6)
    np.testing.assert_allclose(dr[:, 0], 0.1 * np.cos(t), atol=1e-4)


def test_differentiation_handles_wrapped_angles():
    t = np.arange(400) * 0.02
    theta = np.mod(2.0 * t, 2 * np.pi)[:, None]
    r = np.ones_like(theta)
    dth, _ = vfr.differentiate_trial(vfr.Trial(times=t, theta=theta, r=r))
    np.testing.assert_allclose(dth, 2.0, atol=1e-8)


def test_nonuniform_and_short_trials_rejected():
    trial = synthetic_trial()
    bad = vfr.Trial(times=trial.times ** 1.01, theta=trial.theta, r=trial.r)
    with pytest.raises(NonUniformSampling):
        vfr.differentiate_trial(bad)
    with pytest.raises(TooShort):
        vfr.differentiate_trial(vfr.Trial(times=trial.times[:4],
                                          theta=trial.theta[:4], r=trial.r[:4]))
    # Equal or decreasing times are uniform too; they must raise rather than
    # give inf or sign-flipped derivatives.
    for times in (np.zeros_like(trial.times), -trial.times):
        with pytest.raises(NonUniformSampling, match="not positive"):
            vfr.differentiate_trial(vfr.Trial(times=times, theta=trial.theta,
                                              r=trial.r))


def test_fit_recovers_known_separable_field():
    # dtheta_i = 1 + 0.2 r_i cos(theta_i); dr_i = r_i - r_i^2, plus
    # 0.3 r_0 sin(theta_0) into dr_1; oscillator 0 takes no input.
    rng = np.random.default_rng(0)
    n_rows = 4000
    theta = rng.uniform(0, 2 * np.pi, size=(n_rows, 2))
    r = rng.uniform(0.7, 1.3, size=(n_rows, 2))
    dth = 1.0 + 0.2 * r * np.cos(theta)
    dr = r - r ** 2 + 0.3 * r[:, ::-1] * np.sin(theta[:, ::-1]) * np.array([0.0, 1.0])
    single = SingleBasisSpec(2, 2)
    pair = PairBasisSpec(2, 1, 1, "observable")
    nvf = vfr.fit_network_vf((theta, r, dth, dr), single, pair)
    # Uncoupled parts recovered.
    q = nvf.uncoupled[(0, "r")]
    assert q.coefficient(n=1, k=0) == pytest.approx(1.0, abs=1e-6)
    assert q.coefficient(n=2, k=0) == pytest.approx(-1.0, abs=1e-6)
    # Driven coupling recovered, silent direction empty.
    c = nvf.coupling[(1, 0, "r")]
    assert c.coefficient(mi=0, mj=1, own_k=0, own_trig="1", inp_k=1,
                         inp_trig="sin") == pytest.approx(0.3, abs=1e-6)
    assert np.abs(nvf.coupling[(0, 1, "r")].coefficients).max() < 1e-8
    # Evaluation helpers agree with the generating field.
    state = np.array([[0.3, 1.1], [1.2, 0.9]])
    out = network_derivatives(nvf, state)
    assert out[0, 0] == pytest.approx(1.0 + 0.2 * 1.1 * np.cos(0.3), abs=1e-6)


def test_network_round_trip():
    single = SingleBasisSpec(1, 1)
    pair = PairBasisSpec(1, 1, 1, "observable")
    from pharec.basis import FittedSeries
    rng = np.random.default_rng(2)
    unc = {(i, c): FittedSeries(single, rng.normal(size=single.size))
           for i in range(2) for c in ("theta", "r")}
    cpl = {(i, 1 - i, c): FittedSeries(pair, rng.normal(size=pair.size))
           for i in range(2) for c in ("theta", "r")}
    nvf = vfr.NetworkVF(2, unc, cpl)
    again = vfr.NetworkVF.from_dict(nvf.to_dict())
    state = np.array([[0.3, 1.1], [1.2, 0.9]])
    np.testing.assert_allclose(network_derivatives(again, state),
                               network_derivatives(nvf, state), atol=1e-12)


def test_coverage_check_rejects_arc_data():
    theta = np.full((100, 1), 0.5) + np.linspace(0, 0.1, 100)[:, None]
    with pytest.raises(InsufficientCoverage):
        vfr._check_coverage(theta)


def random_trials(rng, lengths, n_osc, step=0.01):
    """Trials of the given lengths: each oscillator turns at its own rate
    from a random phase, its radius wobbling around 1."""
    trials = []
    for n in lengths:
        t = np.arange(n) * step
        omega = rng.uniform(0.9, 1.7, size=n_osc)
        theta = omega * t[:, None] + rng.uniform(0, 2 * np.pi, size=n_osc)
        r = 1.0 + 0.2 * np.sin(rng.uniform(0.3, 2.0, size=n_osc) * t[:, None]
                               + rng.uniform(0, 2 * np.pi, size=n_osc))
        trials.append(vfr.Trial(times=t, theta=theta, r=r))
    return trials


def reference_pooled(trials, row_budget):
    """Every trimmed trial concatenated, then every stride-th row kept."""
    columns = [[], [], [], []]
    for trial in trials:
        dth, dr = vfr.differentiate_trial(trial)
        sl = slice(vfr.TRIM, trial.times.shape[0] - vfr.TRIM)
        for col, x in zip(columns, (trial.theta, trial.r, dth, dr)):
            col.append(x[sl])
    pooled = [np.concatenate(col) for col in columns]
    stride = max(1, pooled[0].shape[0] // row_budget)
    return [x[::stride] for x in pooled]


def assert_one_shot_bits(trials, single, pair, row_budget):
    """fit_network_vf gives exactly the coefficients and kappa of one ridge
    fit per oscillator on a design built over every pooled row at once."""
    from pharec.basis import pair_row, single_row
    from pharec.ridge import ridge_fit_multi
    nvf = vfr.fit_network_vf(vfr.pooled_rows(trials, row_budget), single, pair)
    th, r, dth, dr = reference_pooled(trials, row_budget)
    n_osc = th.shape[1]
    for i in range(n_osc):
        others = [j for j in range(n_osc) if j != i]
        design = np.concatenate(
            [single_row(single, th[:, i], r[:, i])]
            + [pair_row(pair, th[:, i], r[:, i], th[:, j], r[:, j]) for j in others],
            axis=1)
        fits = ridge_fit_multi(design, np.stack([dth[:, i], dr[:, i]], axis=1))
        for comp, fit in zip(vfr.COMPONENTS, fits):
            got = np.concatenate([nvf.uncoupled[(i, comp)].coefficients]
                                 + [nvf.coupling[(i, j, comp)].coefficients
                                    for j in others])
            assert np.array_equal(got, fit.coefficients)
            assert nvf.diagnostics[f"{i}:{comp}"]["kappa"] == fit.kappa
            assert nvf.diagnostics[f"{i}:{comp}"]["rows"] == th.shape[0]


def test_design_buffer_gives_the_bits_of_a_fresh_design():
    # Three oscillators, so each refill of the shared design buffer rewrites
    # two pairwise blocks; a stale or shifted block changes the coefficients.
    # 3 x 1,496 trimmed rows against a budget of 2,000 keep every second row.
    trials = random_trials(np.random.default_rng(8), [1500] * 3, n_osc=3)
    assert_one_shot_bits(trials, SingleBasisSpec(2, 2),
                         PairBasisSpec(1, 1, 1, "observable"), row_budget=2000)


@pytest.mark.parametrize("rows", [vfr._DESIGN_SLICE // 2, vfr._DESIGN_SLICE + 1,
                                  2 * vfr._DESIGN_SLICE + 7])
def test_design_filled_in_slices_gives_the_bits_of_a_fresh_design(rows):
    """Fewer rows than one slice, a lone row past a whole slice (which must
    join that slice: a one-point basis row can differ in the last bit) and
    a short last slice, at the default orders and stride 1."""
    lengths = [rows // 3 + 2 * vfr.TRIM, rows - rows // 3 + 2 * vfr.TRIM]
    trials = random_trials(np.random.default_rng(rows), lengths, n_osc=2)
    assert_one_shot_bits(trials, SingleBasisSpec(4, 5),
                         PairBasisSpec(3, 2, 2, "observable"), row_budget=rows)


@pytest.mark.parametrize("row_budget", [10 ** 6, 120, 91, 40])
def test_pooled_arrays_pick_every_stride_th_row_of_the_concatenation(row_budget):
    """Trials of unequal lengths whose trimmed lengths (97, 53, 85, 41; 276
    in all) are not multiples of the stride (1, 2, 3 or 6), so each trial's
    first kept row depends on the rows of the trials before it."""
    trials = random_trials(np.random.default_rng(3), [101, 57, 89, 45], n_osc=2)
    got = vfr.pooled_rows(trials, row_budget)
    want = reference_pooled(trials, row_budget)
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_design_fill_keeps_basis_temporaries_to_one_slice():
    """A pair block much wider than the single block: built over every row
    at once, pair_row's result and its intermediate would outweigh the
    design.  Filled a slice at a time, the traced peak stays below the
    design plus the pooled columns and a few slices of the design's width."""
    single, pair, n_osc = SingleBasisSpec(0, 1), PairBasisSpec(3, 2, 2), 2
    rows = 10 * vfr._DESIGN_SLICE + 3
    lengths = [rows // 4 + 2 * vfr.TRIM] * 3 + [rows - 3 * (rows // 4) + 2 * vfr.TRIM]
    trials = random_trials(np.random.default_rng(5), lengths, n_osc)
    width = single.size + (n_osc - 1) * pair.size
    design_bytes = 8 * rows * width
    # Over every row: each trial's two derivatives, the four pooled columns
    # and the two targets.  Per slice: a pair row, its own-harmonic
    # intermediate, a single row and the factor stacks, each narrower than
    # the design.
    margin = 8 * rows * (6 * n_osc + 2) + 4 * 8 * vfr._DESIGN_SLICE * width
    tracemalloc.start()
    try:
        vfr.fit_network_vf(vfr.pooled_rows(trials, rows), single, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < design_bytes + margin


def test_design_slices_are_whole_qr_blocks():
    """Every design slice but the last goes to the ridge QR as a block before
    the last, so it must be whole dtpqrt blocks."""
    assert vfr._DESIGN_SLICE % ridge._QR_ROWS == 0


def fit_peak(n_rows: int) -> int:
    """tracemalloc peak of fit_network_vf over n_rows random pooled rows of
    two oscillators at the canonical orders, the rows made beforehand."""
    rng = np.random.default_rng(n_rows)
    rows = (rng.uniform(0.0, 2.0 * np.pi, size=(n_rows, 2)),
            rng.uniform(0.8, 1.2, size=(n_rows, 2)),
            rng.normal(size=(n_rows, 2)), rng.normal(size=(n_rows, 2)))
    tracemalloc.start()
    try:
        vfr.fit_network_vf(rows, pipeline.KIND_SETTINGS["canonical"]["single"],
                           pipeline.PAIR_SPEC)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_peak_does_not_grow_with_the_design():
    """The design is folded into the QR a slice at a time, so twice the rows
    add less to the fit's peak than a tenth of the smaller design."""
    width = pipeline.KIND_SETTINGS["canonical"]["single"].size + pipeline.PAIR_SPEC.size
    design_bytes = 8 * 40_000 * width
    assert fit_peak(80_000) - fit_peak(40_000) < design_bytes / 10
