import numpy as np
import pytest

from pharec import averaging, basis, limit_cycle, models, ode, pipeline, transforms
from pharec.errors import BasinEscape, TooShort


@pytest.fixture(scope="module")
def ric():
    spec = models.default_spec("radial_isochron_clock")
    vf = models.uncoupled_vf(spec, 0)
    jac = models.uncoupled_jacobian(spec, 0)
    cycle = limit_cycle.find_limit_cycle(vf, np.array([0.3, 1.4]))
    cycle = limit_cycle.floquet_from_monodromy(vf, jac, cycle)
    return spec, vf, cycle


def one_sample(vf, cycle, theta0, r0):
    """Reduced coordinates of one initial condition, as a batch of one."""
    return averaging.reduced_coordinates_batch(vf, cycle, [[theta0, r0]])[0]


def test_reduced_coordinates_match_closed_form(ric):
    spec, vf, cycle = ric
    a = spec.param("a", 0)
    for theta0, r0 in ((0.0, 1.2), (2.0, 0.85), (4.5, 1.3)):
        s = one_sample(vf, cycle, theta0, r0)
        sigma_true = a * (r0 ** 2 - 1.0) / (2.0 * a * r0 ** 2)
        assert s.sigma0 == pytest.approx(sigma_true, abs=5e-3)
        assert np.mod(s.phi0 - theta0 + np.pi, 2 * np.pi) - np.pi \
            == pytest.approx(0.0, abs=5e-3)


def test_on_cycle_initial_condition_is_zero_amplitude(ric):
    _, vf, cycle = ric
    s = one_sample(vf, cycle, 1.0, 1.0)
    assert s.sigma0 == 0.0


def test_amplitude_sign_follows_initial_deviation(ric):
    _, vf, cycle = ric
    inner = one_sample(vf, cycle, 0.0, 0.9)
    outer = one_sample(vf, cycle, 0.0, 1.1)
    assert inner.sigma0 < 0 < outer.sigma0


def test_log_slope_corrects_wrong_exponent(ric):
    _, vf, cycle = ric
    traj = ode.integrate(vf, np.array([0.0, 1.25]), 12 * cycle.period, cycle.step)
    dev = averaging.observable_deviation(traj, cycle)
    assert averaging.refine_lambda(dev, 0.0) == pytest.approx(cycle.lam, rel=5e-3)
    assert averaging.refine_lambda(dev, cycle.lam) == pytest.approx(cycle.lam, rel=5e-3)


def test_batch_matches_single_evaluation(ric):
    _, vf, cycle = ric
    ics = np.array([[0.5, 1.15], [3.0, 0.9]])
    batch = averaging.reduced_coordinates_batch(vf, cycle, ics)
    for row, sample in zip(ics, batch):
        single = one_sample(vf, cycle, *row)
        assert sample.phi0 == pytest.approx(single.phi0, abs=1e-9)
        assert sample.sigma0 == pytest.approx(single.sigma0, abs=1e-9)


def test_flow_equivariance(ric):
    _, vf, cycle = ric
    t = 0.4 * cycle.period
    n = int(round(t / cycle.step))
    t = n * cycle.step
    for theta0, r0 in ((0.3, 1.2), (2.5, 0.88)):
        s0 = one_sample(vf, cycle, theta0, r0)
        moved = ode.integrate(vf, np.array([theta0, r0]), t, cycle.step).final_state
        st = one_sample(vf, cycle, float(np.mod(moved[0], 2 * np.pi)),
                        float(moved[1]))
        dphi = np.mod(st.phi0 - s0.phi0 - cycle.omega * t + np.pi, 2 * np.pi) - np.pi
        assert abs(dphi) < 1e-3
        assert st.sigma0 == pytest.approx(s0.sigma0 * np.exp(cycle.lam * t), abs=1e-3)


def test_short_trajectory_rejected(ric):
    _, vf, cycle = ric
    traj = ode.integrate(vf, np.array([0.0, 1.2]), 2 * cycle.period, cycle.step)
    with pytest.raises(TooShort):
        averaging.observable_deviation(traj, cycle)


def test_escaping_initial_condition_rejected(ric):
    _, vf, cycle = ric

    def repelling(state):
        d = vf(state)
        return np.stack([d[..., 0], np.abs(state[..., 1] - 1.0) * 5.0 + 0.1],
                        axis=-1)

    with pytest.raises(BasinEscape):
        averaging.reduced_coordinates_batch(repelling, cycle,
                                            np.array([[0.0, 1.5]]))


def reference_batch(vf, cycle, ics):
    """Whole-horizon averaging as it was before the batch streamed in
    blocks: the reference run integrated on its own, every trajectory, the
    deviations, the weights and the cumulative sums kept over the whole
    horizon, and gamma as one basis product.  Returns phi0, sigma0, the
    periods averaged, the window ends and the horizon."""
    ics = np.asarray(ics, dtype=float)
    lam, step, period = cycle.lam, cycle.step, limit_cycle.STEPS_PER_PERIOD

    def gamma(theta):
        return basis.single_row(cycle.gamma.spec, theta,
                                np.ones_like(theta)) @ cycle.gamma.coefficients

    def padded_cumsum(x):
        return np.concatenate([np.zeros((1,) + x.shape[1:], dtype=x.dtype),
                               np.cumsum(x, axis=0)])

    n = averaging._horizon_steps(
        cycle, lam, float(np.max(np.abs(ics[:, 1] - gamma(ics[:, 0])))))
    times = np.arange(n + 1) * step
    phase_factor = np.exp(-1j * cycle.omega * times)
    ref = ode.integrate(vf, np.asarray(cycle.anchor), n * step, step)
    cum_ref = padded_cumsum(0.5 * ref.states[:, 1] * np.exp(1j * ref.states[:, 0])
                            * phase_factor)
    traj = ode.integrate(vf, ics, n * step, step)
    theta, r = traj.states[..., 0], traj.states[..., 1]
    rho = r - gamma(theta)
    above = np.abs(rho) > averaging._precision_floor(cycle, rho[0])
    i2 = n - np.argmax(above[::-1], axis=0)
    periods = np.where(above.any(axis=0), np.minimum(i2 // period, 2), 0)
    i2 = np.where(periods > 0, i2, n)
    i1 = i2 - np.where(periods > 0, periods, 2) * period

    def means(cum):
        return (np.take_along_axis(cum, i2[None, :] + 1, axis=0)
                - np.take_along_axis(cum, i1[None, :], axis=0))[0] / (i2 - i1 + 1)

    sig = means(padded_cumsum(np.abs(rho) * np.exp(-lam * times)[:, None]))
    sig = np.where(periods == 0, 0.0, sig * np.sign(rho[0]))
    z = 0.5 * r * np.exp(1j * theta) * phase_factor[:, None]
    phi0 = np.mod(np.angle(means(padded_cumsum(z)))
                  - np.angle(means(cum_ref[:, None])), 2.0 * np.pi)
    return phi0, sig, periods, i2, n


@pytest.mark.parametrize("a", [0.4, 1.5])
def test_streaming_batch_equals_whole_horizon_average(a, monkeypatch):
    """Seven initial conditions (not a multiple of four), one on the cycle,
    give exactly the whole-horizon result.  The slow clock (lambda = -0.8)
    runs a horizon that is not a whole number of blocks, and runs again with
    a block starting right at the end of a two-period window, which then
    starts at the oldest kept cumulative row; on the fast clock (lambda = -3)
    the deviations reach the floor within two periods."""
    spec = models.ModelSpec("radial_isochron_clock", {"a": (a,)}, [[0.0]])
    vf = models.uncoupled_vf(spec, 0)
    cycle = limit_cycle.find_limit_cycle(vf, np.array([0.3, 1.4]))
    cycle = limit_cycle.floquet_from_monodromy(vf, models.uncoupled_jacobian(spec, 0),
                                               cycle)
    th = np.array([0.0, 0.7, 1.9, 2.6, 3.5, 4.4, 5.8])
    u = np.array([1.25, 0.8, 1.0, 1.1, 0.95, 1.3, 0.78])
    ics = np.stack([th, u * cycle.gamma_at(th)], axis=1)
    phi0, sig, periods, i2, n = reference_batch(vf, cycle, ics)

    def check():
        samples = averaging.reduced_coordinates_batch(vf, cycle, ics)
        assert [s.phi0 for s in samples] == phi0.tolist()
        assert [s.sigma0 for s in samples] == sig.tolist()

    check()
    assert periods[2] == 0 and sig[2] == 0.0
    if a < 1:
        assert n % averaging._BLOCK_STEPS != 0
        assert set(periods) == {0, 2}
        monkeypatch.setattr(averaging, "_BLOCK_STEPS", int(i2[0]) - 1)
        check()
    else:
        assert set(periods) == {0, 1}


@pytest.mark.parametrize("batch", [slice(None), slice(4, 5)])
def test_block_size_leaves_the_samples_unchanged(batch, monkeypatch):
    """The seven-IC batch and one of its initial conditions on its own give
    the same bits at the old two-period block, at the default block, at a
    block that does not divide the horizon and at the horizon less one
    step, whose last block is a single step."""
    spec = models.ModelSpec("radial_isochron_clock", {"a": (0.4,)}, [[0.0]])
    vf = models.uncoupled_vf(spec, 0)
    cycle = limit_cycle.find_limit_cycle(vf, np.array([0.3, 1.4]))
    cycle = limit_cycle.floquet_from_monodromy(vf, models.uncoupled_jacobian(spec, 0),
                                               cycle)
    th = np.array([0.0, 0.7, 1.9, 2.6, 3.5, 4.4, 5.8])[batch]
    u = np.array([1.25, 0.8, 1.0, 1.1, 0.95, 1.3, 0.78])[batch]
    ics = np.stack([th, u * cycle.gamma_at(th)], axis=1)
    n = averaging._horizon_steps(cycle, cycle.lam,
                                 float(np.max(np.abs(ics[:, 1] - cycle.gamma_at(th)))))
    default, odd = averaging._BLOCK_STEPS, n // 3 + 1
    assert n % odd != 0

    def samples(block):
        monkeypatch.setattr(averaging, "_BLOCK_STEPS", block)
        return [(s.phi0, s.sigma0)
                for s in averaging.reduced_coordinates_batch(vf, cycle, ics)]

    want = samples(2 * limit_cycle.STEPS_PER_PERIOD)
    for block in (default, odd, n - 1):
        assert samples(block) == want


@pytest.mark.parametrize("kind, span", [
    ("radial_isochron_clock", (0.8, 1.25)),
    ("canonical", (0.8, 1.25)),
    ("van_der_pol", (0.8, 1.25)),
    ("wilson_cowan", (0.8, 1.25)),
    # The probe's horizon outlasts this narrow grid's, so its last rows come
    # from a one-state run continued after the batch.
    ("van_der_pol", (0.9, 1.1)),
])
def test_probe_column_keeps_the_samples_and_a_one_state_run(pipeline_runs, kind, span):
    """A slope probe riding in the batch leaves every sample's bytes as they
    are without it, and its rows are, bit for bit, the states of the probe
    integrated on its own, as stage_transforms builds it."""
    config = pipeline_runs[kind].config
    frames, cycles = pipeline._load(config, "limit_cycle")
    cycle, vf = cycles[0], pipeline._oscillator_fields(config, frames)[0]
    ics = transforms.generate_ic_grid(cycle, 5, 3, span)
    gamma0 = cycle.gamma_at(0.0)
    k = averaging._horizon_steps(cycle, cycle.lam, float(abs(1.2 * gamma0 - gamma0)))
    n = averaging._horizon_steps(
        cycle, cycle.lam, float(np.max(np.abs(ics[:, 1] - cycle.gamma_at(ics[:, 0])))))
    assert (k > n) == (span == (0.9, 1.1))
    probe = np.zeros((k + 1, 2))
    probe[0, 1] = 1.2 * gamma0

    def sample_bytes(samples):
        return np.array([(s.theta0, s.r0, s.phi0, s.sigma0) for s in samples]).tobytes()

    with_probe = averaging.reduced_coordinates_batch(vf, cycle, ics, probe)
    assert sample_bytes(with_probe) == sample_bytes(
        averaging.reduced_coordinates_batch(vf, cycle, ics))
    alone = ode.integrate(vf, probe[0], k * cycle.step, cycle.step).states
    assert probe.tobytes() == alone.tobytes()
