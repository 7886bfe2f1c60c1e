import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from pharec import limit_cycle, models
from pharec.errors import ComplexMultiplier, NoConvergence, PharecError


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
    seed = models.cart_to_polar(models._settle_seed(spec, 0), frame)
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


SMOOTH = {
    "quadratic": lambda x: x * x - 2.0,
    "cubic": lambda x: x ** 3 - x - 1.0,
    "sine": lambda x: math.sin(3.0 * x) - 0.3,
    "exp": lambda x: math.exp(x) - 3.0,
    "cos_minus_x": lambda x: math.cos(x) - x,
    "flat_fifth_power": lambda x: (x - 0.7) ** 5,
    "steep_tanh": lambda x: math.tanh(50.0 * (x - 0.1234567)),
}
PORT = limit_cycle._brentq


def _same_outcome(f, a, b, xtol):
    """The port returns scipy's root bit for bit, or raises NoConvergence
    where scipy raises."""
    try:
        want = brentq(f, a, b, xtol=xtol)
    except (ValueError, RuntimeError):
        with pytest.raises(NoConvergence):
            PORT(f, a, b, xtol)
        return False
    got = PORT(f, a, b, xtol)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, b, xtol)
    return True


@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_brentq_matches_scipy_bit_for_bit(name):
    """On a grid of brackets, either end first, and four tolerances the port
    takes scipy's iterates: the same root bits, and an error where scipy has
    one (brackets without a sign change).  The coarse 0.3 reaches the
    ``- delta`` of the short-step test."""
    ends = np.linspace(-2.5, 3.0, 12)
    found = 0
    for a in ends:
        for b in ends:
            if a != b:
                for xtol in (1e-14, 2e-12, 1e-6, 0.3):
                    found += _same_outcome(SMOOTH[name], float(a), float(b), xtol)
    assert found > 0


@pytest.mark.parametrize("kind", ["radial_isochron_clock", "canonical"])
def test_poincare_crossings_match_scipy_brentq(kind, monkeypatch):
    """Every [0, step] RK4 crossing that find_limit_cycle solves gives the
    same root with the port as with scipy.optimize.brentq, and the cycle
    found with scipy's routine is the same to the last bit."""
    spec = models.default_spec(kind)
    vf = models.uncoupled_vf(spec, 0)
    seed = np.array([0.3, 1.4])
    crossings = []

    def checked(f, a, b, xtol):
        crossings.append(_same_outcome(f, a, b, xtol))
        return PORT(f, a, b, xtol)

    monkeypatch.setattr(limit_cycle, "_brentq", checked)
    cycle = limit_cycle.find_limit_cycle(vf, seed)
    assert len(crossings) >= 2 and all(crossings)
    monkeypatch.setattr(limit_cycle, "_brentq",
                        lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol))
    again = limit_cycle.find_limit_cycle(vf, seed)
    assert json.dumps(again.to_dict()) == json.dumps(cycle.to_dict())


def test_brentq_failures_raise_no_convergence():
    """A bracket without a sign change, a NaN value and a budget of
    iterations spent without convergence raise NoConvergence, a PharecError,
    where scipy raises ValueError or RuntimeError."""
    def step(x):
        return -1.0 if x < 0.123 else 1.0

    cases = [
        (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),   # no sign change
        (lambda x: math.nan, 0.0, 1.0, ValueError),       # NaN at an end
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0,
         ValueError),                                      # NaN mid-search
        (step, -1e300, 1e300, RuntimeError),              # > 100 bisections
    ]
    for f, a, b, scipy_error in cases:
        with pytest.raises(scipy_error):
            brentq(f, a, b, xtol=1e-14)
        with pytest.raises(NoConvergence):
            PORT(f, a, b, 1e-14)
    assert issubclass(NoConvergence, PharecError)
