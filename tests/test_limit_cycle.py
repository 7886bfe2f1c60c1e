import os
import subprocess
import sys

import numpy as np
import pytest

from pharec import limit_cycle, models, ode
from pharec.errors import ComplexMultiplier


@pytest.fixture(scope="module")
def ric_cycle():
    spec = models.default_spec("radial_isochron_clock")
    vf = models.uncoupled_vf(spec, 0)
    jac = models.uncoupled_jacobian(spec, 0)
    cycle = limit_cycle.find_limit_cycle(vf, np.array([0.3, 1.4]))
    return spec, vf, jac, limit_cycle.floquet_from_monodromy(vf, jac, cycle)


def test_unit_circle_cycle_located(ric_cycle):
    _, _, _, cycle = ric_cycle
    assert cycle.period == pytest.approx(2 * np.pi, abs=1e-9)
    assert cycle.omega == pytest.approx(1.0, abs=1e-9)
    theta = np.linspace(0, 2 * np.pi, 50)
    np.testing.assert_allclose(cycle.gamma_at(theta), 1.0, atol=1e-9)
    assert cycle.anchor[1] == pytest.approx(1.0, abs=1e-9)
    assert cycle.gamma_resid < 1e-8


def test_floquet_exponent_from_monodromy(ric_cycle):
    spec, _, _, cycle = ric_cycle
    a = spec.param("a", 0)
    assert cycle.lam == pytest.approx(-2.0 * a, rel=1e-8)
    eig = np.sort(np.abs(np.linalg.eigvals(cycle.monodromy)))
    assert eig[1] == pytest.approx(1.0, abs=1e-8)
    assert eig[0] == pytest.approx(np.exp(cycle.lam * cycle.period), rel=1e-6)


def test_canonical_frequency_includes_shear():
    spec = models.default_spec("canonical")
    vf = models.uncoupled_vf(spec, 0)
    cycle = limit_cycle.find_limit_cycle(vf, np.array([0.0, 1.3]))
    a, alpha = spec.param("a", 0), spec.param("alpha", 0)
    assert cycle.omega == pytest.approx(1.0 + alpha * a, rel=1e-9)


def test_cycle_round_trip(ric_cycle):
    _, _, _, cycle = ric_cycle
    again = limit_cycle.LimitCycle.from_dict(cycle.to_dict())
    assert again.period == cycle.period
    assert again.lam == cycle.lam
    np.testing.assert_array_equal(again.monodromy, cycle.monodromy)
    np.testing.assert_array_equal(again.gamma.coefficients,
                                  cycle.gamma.coefficients)


def test_expanding_cycle_rejected(ric_cycle):
    _, vf, _, cycle = ric_cycle

    def bad_jac(state):
        return np.array([[0.0, 0.0], [0.0, 1.0]])  # expanding transverse flow

    with pytest.raises(ComplexMultiplier):
        limit_cycle.floquet_from_monodromy(vf, bad_jac, cycle)


def test_noncircular_cycle_profile():
    spec = models.default_spec("van_der_pol")
    frame = models.estimate_frame(spec)[0]
    vf = models.polar_uncoupled_vf(spec, 0, frame)
    seed = models.cycle_seed(spec, 0, frame)
    cycle = limit_cycle.find_limit_cycle(vf, seed, n_gamma=32)
    theta = np.linspace(0, 2 * np.pi, 200)
    gamma = cycle.gamma_at(theta)
    assert gamma.min() > 0
    assert gamma.max() / gamma.min() > 1.05  # genuinely non-circular
    assert cycle.gamma_resid < 1e-5


GAMMA_BITS = """
import numpy as np
from pharec.basis import FittedSeries, SingleBasisSpec, single_row
from pharec.limit_cycle import LimitCycle

rng = np.random.default_rng(3)
spec = SingleBasisSpec(0, 32)
cycle = LimitCycle(period=1.0, omega=2.0 * np.pi, anchor=(0.0, 1.0),
                   gamma=FittedSeries(spec, rng.standard_normal(spec.size)))
for shape in [(), (1,), (4095,), (4096,), (4097,), (10001,), (3, 5), (700, 7)]:
    theta = rng.uniform(0.0, 2.0 * np.pi, shape)
    got = cycle.gamma_at(theta)
    want = single_row(spec, theta, np.ones_like(theta)) @ cycle.gamma.coefficients
    assert np.shape(got) == shape, (shape, np.shape(got))
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), shape
print("ok")
"""


def test_gamma_slices_keep_one_shot_bits():
    """gamma_at evaluates long inputs in slices; each point keeps the bits of
    the one-shot basis product, whatever the input's shape.

    This rests on BLAS gemv taking rows in groups of four, and is checked
    with one BLAS thread: a threaded gemv splits the rows among threads at
    boundaries of its own, so its bits already depend on the thread count.
    """
    import pharec

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(pharec.__file__)))
    done = subprocess.run([sys.executable, "-c", GAMMA_BITS], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def _recorded_crossing(vf, state, step, target, monkeypatch):
    """_crossing's result and every RK4 step length it tries."""
    tried, real = [], ode.rk4_step

    def rk4_step(vf, state, h):
        tried.append(h)
        return real(vf, state, h)

    with monkeypatch.context() as m:
        m.setattr(ode, "rk4_step", rk4_step)
        h = limit_cycle._crossing(vf, state, step, target)
    assert tried and all(0.0 <= t <= step for t in tried)
    assert 0.0 <= h <= step
    return h


def test_crossing_on_the_clock_is_the_distance_to_the_target(monkeypatch):
    """The clock's theta-rate is exactly 1.0, so an RK4 step of h advances
    theta by h, and the crossing's h is target - theta0."""
    vf = models.uncoupled_vf(models.default_spec("radial_isochron_clock"), 0)
    step = 2 * np.pi / limit_cycle.STEPS_PER_PERIOD
    for theta0, target in [(2 * np.pi - f * step, 2 * np.pi) for f in (1e-9, 0.37, 0.999)] + [
            (1.0, 1.0 + 0.5 * step), (0.2, 0.2 + step)]:
        h = _recorded_crossing(vf, np.array([theta0, 1.3]), step, target, monkeypatch)
        assert abs(h - (target - theta0)) <= 1e-15


def test_crossing_on_van_der_pol_lands_on_the_target(monkeypatch):
    """On the van der Pol polar field, whose theta-rate varies along the
    step, one RK4 step of the returned h ends within 1e-13 of the target."""
    spec = models.default_spec("van_der_pol")
    vf = models.polar_uncoupled_vf(spec, 0, models.ObservableFrame(orientation=-1.0))
    rng = np.random.default_rng(5)
    step = 0.01
    for theta0, r, frac in zip(rng.uniform(0.0, 2 * np.pi, 8), rng.uniform(1.5, 2.5, 8),
                               rng.uniform(0.0, 1.0, 8)):
        state = np.array([theta0, r])
        end = ode.rk4_step(vf, state, step)[0]
        target = theta0 + frac * (end - theta0)
        assert theta0 < target <= end
        h = _recorded_crossing(vf, state, step, target, monkeypatch)
        assert abs(ode.rk4_step(vf, state, h)[0] - target) <= 1e-13
