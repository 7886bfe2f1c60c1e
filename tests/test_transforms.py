import numpy as np
import pytest

from pharec import averaging, limit_cycle, models, transforms
from pharec.basis import SingleBasisSpec
from pharec.errors import InsufficientSamples


@pytest.fixture(scope="module")
def fitted():
    spec = models.default_spec("radial_isochron_clock")
    vf = models.uncoupled_vf(spec, 0)
    jac = models.uncoupled_jacobian(spec, 0)
    cycle = limit_cycle.find_limit_cycle(vf, np.array([0.3, 1.4]))
    cycle = limit_cycle.floquet_from_monodromy(vf, jac, cycle)
    ics = transforms.generate_ic_grid(cycle, 21, 15, (0.75, 1.35))
    samples = averaging.reduced_coordinates_batch(vf, cycle, ics)
    ts = transforms.fit_transform_set(samples, SingleBasisSpec(4, 5))
    return spec, cycle, samples, ts


def test_ic_grid_follows_cycle_profile():
    spec = models.default_spec("radial_isochron_clock")
    vf = models.uncoupled_vf(spec, 0)
    cycle = limit_cycle.find_limit_cycle(vf, np.array([0.3, 1.4]))
    grid = transforms.generate_ic_grid(cycle, 7, 5, (0.8, 1.2))
    assert grid.shape == (35, 2)
    u = grid[:, 1] / cycle.gamma_at(grid[:, 0])
    assert u.min() == pytest.approx(0.8) and u.max() == pytest.approx(1.2)


def test_inverse_maps_recover_closed_forms(fitted):
    spec, cycle, _, ts = fitted
    th, r = np.meshgrid(np.linspace(0, 2 * np.pi, 30, endpoint=False),
                        np.linspace(0.85, 1.25, 10))
    sigma_true = (r ** 2 - 1.0) / (2.0 * r ** 2)
    phi, sig = ts.inverse(th, r)
    assert np.abs(sig - sigma_true).max() < 5e-3
    assert np.abs(transforms.wrap_angle(phi - th)).max() < 5e-3


def test_forward_inverse_composition(fitted):
    _, _, _, ts = fitted
    th, r = np.meshgrid(np.linspace(0, 2 * np.pi, 25, endpoint=False),
                        np.linspace(0.85, 1.25, 8))
    k_theta, k_r = ts.forward(*ts.inverse(th, r))
    assert np.abs(k_r - r).max() < 1e-2
    assert np.abs(transforms.wrap_angle(k_theta - th)).max() < 1e-2


def test_gradients_match_finite_differences(fitted):
    _, _, _, ts = fitted
    th, r, h = 1.0, 1.1, 1e-6
    (phi, dpt, dpr), (sig, dst, dsr) = ts.inverse_grad(th, r)

    def diff(dth, dr):
        return ((np.array(ts.inverse(th + dth, r + dr))
                 - np.array(ts.inverse(th - dth, r - dr))) / (2 * h))

    assert (dpt, dst) == pytest.approx(tuple(diff(h, 0.0)), abs=1e-6)
    assert (dpr, dsr) == pytest.approx(tuple(diff(0.0, h)), abs=1e-6)
    assert (phi, sig) == ts.inverse(th, r)


def test_domains_recorded(fitted):
    _, _, samples, ts = fitted
    r = np.array([s.r0 for s in samples])
    sig = np.array([s.sigma0 for s in samples])
    assert ts.r_domain == (pytest.approx(r.min()), pytest.approx(r.max()))
    assert ts.sigma_domain == (pytest.approx(sig.min()), pytest.approx(sig.max()))


def test_round_trip(fitted):
    _, _, _, ts = fitted
    again = transforms.TransformSet.from_dict(ts.to_dict())
    th, r = 0.4, 1.1
    assert again.inverse(th, r) == ts.inverse(th, r)
    assert again.forward(th, r) == ts.forward(th, r)


def test_too_few_samples_rejected(fitted):
    _, _, samples, _ = fitted
    with pytest.raises(InsufficientSamples):
        transforms.fit_transform_set(samples[:30], SingleBasisSpec(4, 5))


def test_wrap_branch():
    x = np.array([0.0, np.pi, -np.pi + 1e-9, 3 * np.pi / 2, -3 * np.pi / 2])
    w = transforms.wrap_angle(x)
    assert np.all(w > -np.pi - 1e-12) and np.all(w <= np.pi + 1e-12)
    np.testing.assert_allclose(np.mod(w - x, 2 * np.pi), 0.0, atol=1e-8)
