import numpy as np
import pytest
from scipy.linalg import expm

from pharec import ode
from pharec.errors import InvalidStep, NonFiniteState


def decay(state):
    return -state


def rotation(state):
    x, y = state[..., 0], state[..., 1]
    return np.stack([-y, x], axis=-1)


def test_rk4_fourth_order_convergence():
    x0 = np.array([1.0, 0.5])
    errs = []
    for h in (0.1, 0.05):
        traj = ode.integrate(decay, x0, 1.0, h)
        errs.append(np.abs(traj.final_state - x0 * np.exp(-1.0)).max())
    assert errs[0] / errs[1] > 12.0  # ~2^4


def test_integrate_samples_uniformly():
    traj = ode.integrate(decay, np.array([1.0, 1.0]), 1.0, 0.01)
    assert traj.times.shape[0] == 101
    assert traj.times[0] == 0.0
    np.testing.assert_allclose(np.diff(traj.times), 0.01)
    assert traj.step_size == 0.01


def test_batch_matches_individual_integration():
    batch = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, -0.2]])
    full = ode.integrate(rotation, batch, 2.0, 0.01)
    for b in range(batch.shape[0]):
        single = ode.integrate(rotation, batch[b], 2.0, 0.01)
        np.testing.assert_array_equal(full.states[:, b], single.states)


def test_invalid_step_raises():
    with pytest.raises(InvalidStep):
        ode.integrate(decay, np.array([1.0, 1.0]), 1.0, 0.0)
    with pytest.raises(InvalidStep):
        ode.integrate(decay, np.array([1.0, 1.0]), 0.001, 0.01)
    # A NaN duration or step, or a step count that overflows to inf.
    for duration, step in ((np.nan, 0.01), (1.0, np.nan), (np.inf, 0.01), (1e308, 0.01)):
        with pytest.raises(InvalidStep, match="not a finite step count"):
            ode.integrate(decay, np.array([1.0, 1.0]), duration, step)


def test_nonfinite_state_raises():
    def blowup(state):
        return state ** 2

    # The first non-finite state is the fifth: four steps stay finite.
    assert np.isfinite(ode.integrate(blowup, np.array([5.0, 5.0]), 0.4, 0.1).states).all()
    with pytest.raises(NonFiniteState, match=r"^non-finite state at t=0\.5$"):
        ode.integrate(blowup, np.array([5.0, 5.0]), 10.0, 0.1)
    # In a batch, one column (or one entry) going non-finite is enough; the
    # others stay finite long after t = 0.5.
    for batch in ([[0.1, 0.1], [5.0, 5.0], [0.2, 0.1]], [[0.1, 0.1], [0.1, 5.0]]):
        with pytest.raises(NonFiniteState, match=r"^non-finite state at t=0\.5$"):
            ode.integrate(blowup, np.array(batch), 10.0, 0.1)


def test_tangent_integration_matches_matrix_exponential():
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])

    def vf(state):
        return state @ a.T

    def jac(state):
        return a

    tt = ode.integrate_with_tangent(vf, jac, np.array([1.0, 0.0]), 1.0, 1e-3)
    np.testing.assert_allclose(tt.tangent[-1], expm(a), atol=1e-9)
    np.testing.assert_allclose(tt.base.final_state, expm(a) @ [1.0, 0.0],
                               atol=1e-9)


def test_tangent_identity_at_start():
    tt = ode.integrate_with_tangent(lambda s: -s, lambda s: -np.eye(2),
                                    np.array([1.0, 1.0]), 0.5, 0.01)
    np.testing.assert_array_equal(tt.tangent[0], np.eye(2))
