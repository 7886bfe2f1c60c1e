import numpy as np
import pytest

from pharec import averaging, limit_cycle, models, ode
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
