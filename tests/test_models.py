import warnings
from dataclasses import replace

import numpy as np
import pytest

from pharec import models, ode
from pharec.errors import (NoAnalyticForm, NonFiniteState, NonPositiveRadius, ShapeMismatch,
                           UnknownKind)

KINDS = ("radial_isochron_clock", "canonical", "van_der_pol", "wilson_cowan")


def test_default_specs_are_unidirectional():
    for kind in KINDS:
        spec = models.default_spec(kind)
        assert spec.n_oscillators == 2
        assert spec.coupling[0, 1] == 0.0
        assert spec.coupling[1, 0] > 0.0


def test_unknown_kind_raises():
    with pytest.raises(UnknownKind):
        models.default_spec("pendulum")


def test_spec_round_trip():
    for kind in KINDS:
        spec = models.default_spec(kind)
        again = models.ModelSpec.from_dict(spec.to_dict())
        assert again.kind == spec.kind
        np.testing.assert_array_equal(again.coupling, spec.coupling)


def test_radial_isochron_clock_uncoupled_field():
    spec = models.default_spec("radial_isochron_clock")
    vf = models.uncoupled_vf(spec, 1)
    a = spec.param("a", 1)
    for r in (0.5, 1.0, 1.7):
        d = vf(np.array([0.3, r]))
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(a * r * (1.0 - r ** 2))


def test_canonical_uncoupled_field():
    spec = models.default_spec("canonical")
    vf = models.uncoupled_vf(spec, 0)
    a, alpha = spec.param("a", 0), spec.param("alpha", 0)
    d = vf(np.array([1.0, 1.3]))
    assert d[0] == pytest.approx(1.0 + alpha * a * 1.3 ** 2)
    assert d[1] == pytest.approx(alpha * 1.3 * (1.0 - 1.3 ** 2))


def test_polar_kind_rejects_nonpositive_radius():
    """Every field and Jacobian of a polar kind checks the radius, coupled or
    not, and an uncoupled batch fails on one bad radius, NaN radii or not."""
    for kind in ("radial_isochron_clock", "canonical"):
        spec = models.default_spec(kind)
        for r in (0.0, -0.0, -0.1, -0.3):
            with pytest.raises(NonPositiveRadius):
                models.network_vf(spec)(np.array([[0.0, 1.0], [0.4, r]]))
            for i in range(2):
                for fn in (models.uncoupled_vf(spec, i), models.uncoupled_jacobian(spec, i),
                           models.polar_uncoupled_vf(spec, i),
                           models.polar_uncoupled_jacobian(spec, i, models.ObservableFrame())):
                    with pytest.raises(NonPositiveRadius):
                        fn(np.array([0.4, r]))
                # Uncoupled batches with one bad radius, beside a NaN one too.
                for fn in (models.uncoupled_vf(spec, i), models.polar_uncoupled_vf(spec, i)):
                    for batch in ([[0.4, 1.0], [1.1, r], [2.0, 0.9]],
                                  [[0.4, np.nan], [1.1, 1.0], [2.0, r]]):
                        with pytest.raises(NonPositiveRadius):
                            fn(np.array(batch))


def test_single_state_fails_like_its_row():
    """A single state, evaluated on Python floats, stops an RK4 run with the
    error, at the time, of the same state as a (1, 2) row: a van der Pol state
    whose stiff steps overflow, and a clock state whose radius overshoots
    below zero.  The field's own float overflow raises no RuntimeWarning."""
    vdp = models.uncoupled_vf(models.default_spec("van_der_pol"), 0)
    clock = models.uncoupled_vf(models.default_spec("radial_isochron_clock"), 0)
    for vf, state, error, message in (
            (vdp, [20.0, 0.0], NonFiniteState, "non-finite state at t=0.4"),
            (clock, [0.3, 10.0], NonPositiveRadius, "polar model evaluated at r <= 0")):
        for start in (np.array(state), np.array([state])):
            with np.errstate(all="ignore"), pytest.raises(error) as info:
                ode.integrate(vf, start, 100.0, 0.1)
            assert str(info.value) == message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = vdp(np.array([1e200, 1e200]))
    assert out.tolist() == [1e200, -np.inf]
    with pytest.warns(RuntimeWarning):
        assert vdp(np.array([[1e200, 1e200]])).tolist() == [[1e200, -np.inf]]


def test_polar_jacobian_rejects_nonpositive_radius():
    for kind in ("radial_isochron_clock", "canonical"):
        spec = models.default_spec(kind)
        for jac in (models.uncoupled_jacobian(spec, 1),
                    models.polar_uncoupled_jacobian(spec, 1, models.ObservableFrame())):
            for r in (0.0, -0.0, -0.3):
                with pytest.raises(NonPositiveRadius):
                    jac(np.array([0.4, r]))


def test_network_field_coupling_direction():
    spec = models.default_spec("radial_isochron_clock")
    state = np.array([[0.5, 1.1], [1.2, 0.9]])
    net = models.network_vf(spec)(state)
    unc = np.stack([models.uncoupled_vf(spec, i)(state[i]) for i in range(2)])
    # Oscillator 0 is undriven, oscillator 1 receives the drive.
    np.testing.assert_allclose(net[0], unc[0])
    assert np.abs(net[1] - unc[1]).max() > 1e-3


def test_coupled_network_field_rejects_other_state_shapes():
    """The coupled field takes only states (..., N, 2): a (2,) state, a wrong
    oscillator count or a wrong last axis raise ShapeMismatch naming that
    shape."""
    for kind in KINDS:
        spec = models.default_spec(kind)
        vf = models.network_vf(spec)
        assert vf(np.full((3, 2, 2), 0.5)).shape == (3, 2, 2)
        for shape in ((2,), (3, 2), (2, 3), (4, 3, 2)):
            with pytest.raises(ShapeMismatch, match=r"\(\.\.\., 2, 2\)"):
                vf(np.full(shape, 0.5))


def test_one_formula_behind_every_field():
    """Network, uncoupled and polar fields agree bit for bit where they should."""
    rng = np.random.default_rng(0)
    for kind in KINDS:
        spec = models.default_spec(kind)
        frames = models.estimate_frame(spec)
        if kind in ("van_der_pol", "wilson_cowan"):
            center = np.array([f.center for f in frames])
            states = center + 0.2 * rng.standard_normal((5, 2, 2))
        else:
            states = np.stack([rng.uniform(0.0, 2.0 * np.pi, (5, 2)),
                               rng.uniform(0.5, 1.5, (5, 2))], axis=-1)
        spec.coupling = np.zeros((2, 2))
        net = models.network_vf(spec)(states)
        for i in range(2):
            assert np.array_equal(net[:, i], models.uncoupled_vf(spec, i)(states[:, i]))
        if kind in ("van_der_pol", "wilson_cowan"):
            # Single (2,) states take Python float arithmetic, batches NumPy's
            # array arithmetic; both must give the same bits.  A scalar
            # ``x ** 2`` misses ``x * x`` about once in 1,200 draws, hence
            # thousands of states.
            vf = models.polar_uncoupled_vf(spec, 0, frames[0])
            span = (0.1, 0.4) if kind == "wilson_cowan" else (0.5, 3.0)
            batch = np.stack([rng.uniform(0.0, 2.0 * np.pi, 4000),
                              rng.uniform(*span, 4000)], axis=-1)
            single = np.stack([vf(s) for s in batch])
            assert np.array_equal(single, vf(batch))


def _zero_drive_field(spec, i):
    """Oscillator i's coupled expression driven by an explicit array of zeros."""
    p = {k: spec.param(k, i) for k in spec.params}
    return lambda u, v: models._field(spec.kind, p, u, v, np.zeros(np.shape(u)))


def test_drive_free_fields_keep_the_zero_drive_bits(monkeypatch):
    """The uncoupled fields and Jacobians, which evaluate no drive term, give
    the coupled expression's bits under a zero drive array, signed zeros
    included: r = 1 (where the radial term is +0.0) and angles whose sine and
    cosine are both negative are among the states."""
    rng = np.random.default_rng(5)
    theta = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 200), [3.5, 4.0, 4.5, 2.0, 5.5]])
    polar = np.stack([theta, np.concatenate([rng.uniform(0.1, 2.0, 200), np.ones(5)])],
                     axis=-1)
    for kind in KINDS:
        spec = models.default_spec(kind)
        frames = models.estimate_frame(spec)
        for i in range(2):
            native = (polar if kind in ("radial_isochron_clock", "canonical")
                      else np.asarray(frames[i].center) + 0.3 * rng.standard_normal((205, 2)))
            # (factory, its frame argument, states, whether it takes a batch)
            factories = ((models.uncoupled_vf, (), native, True),
                         (models.polar_uncoupled_vf, (frames[i],), polar, True),
                         (models.uncoupled_jacobian, (), native, False),
                         (models.polar_uncoupled_jacobian, (frames[i],), polar, False))

            def outputs():
                out = []
                for factory, args, states, batch in factories:
                    fn = factory(spec, i, *args)
                    if batch:
                        out.append(fn(states).tobytes())
                    out += [fn(s).tobytes() for s in states]
                return out

            drive_free = outputs()
            with monkeypatch.context() as m:
                m.setattr(models, "_uncoupled_field", _zero_drive_field)
                assert outputs() == drive_free, (kind, i)


def _network_signal(spec, states):
    """The coupling signal of each oscillator, as ``network_vf`` documents it."""
    u, v = states[..., 0], states[..., 1]
    if spec.kind == "radial_isochron_clock":
        return v * np.sin(u)
    if spec.kind == "canonical":
        return v * np.cos(u)
    if spec.kind == "van_der_pol":
        return u
    return u - np.array([models.wc_equilibrium(spec, i)[0]
                         for i in range(spec.n_oscillators)])


def _zero_coupled_formula(spec, states):
    """The coupled formula of ``network_vf`` under an all-zero coupling matrix."""
    spec = replace(spec, coupling=np.zeros_like(spec.coupling))
    p = {k: np.asarray(v) for k, v in spec.params.items()}
    return models._field(spec.kind, p, states[..., 0], states[..., 1],
                         _network_signal(spec, states) @ spec.coupling.T)


def test_field_outputs_are_fresh_stacks_of_the_formula():
    """Every field factory returns, bit for bit, ``np.stack`` of the formula's
    two components (broadcast: the clock's uncoupled θ-rate is a scalar), in a
    new float64 array of the state's shape per call.  A zero-coupling network,
    which passes no drive, gives the coupled formula's bits under a zero
    coupling matrix; its (2,) case is a one-oscillator network, whose formula
    runs on the same state as a (1, 2) row."""
    rng = np.random.default_rng(4)
    for kind in KINDS:
        spec = models.default_spec(kind)
        frames = models.estimate_frame(spec)
        p = {k: np.asarray(v) for k, v in spec.params.items()}
        span = (0.1, 0.4) if kind == "wilson_cowan" else (0.5, 1.5)

        def polar_states(shape):
            return np.stack([rng.uniform(0.0, 2.0 * np.pi, shape),
                             rng.uniform(*span, shape)], axis=-1)

        def native_states(shape, center):
            if kind in ("radial_isochron_clock", "canonical"):
                return polar_states(shape)
            return np.asarray(center) + 0.3 * rng.standard_normal(shape + (2,))

        centers = [f.center for f in frames]
        cases = [(models.network_vf(spec),
                  lambda s: models._field(kind, p, s[..., 0], s[..., 1],
                                          _network_signal(spec, s) @ spec.coupling.T),
                  native_states(shape, centers)) for shape in ((2,), (7, 2))]
        solo = models.ModelSpec(kind, {k: v[:1] for k, v in spec.params.items()}, [[0.0]])
        cases += [(models.network_vf(solo),
                   lambda s, solo=solo: _zero_coupled_formula(solo, s.reshape(1, 2)),
                   native_states((), centers[0]))]
        cases += [(models.network_vf(replace(spec, coupling=np.zeros((2, 2)))),
                   lambda s: _zero_coupled_formula(spec, s),
                   native_states(shape, centers)) for shape in ((2,), (7, 2))]
        for i in range(2):
            for vf, field, states in (
                    (models.uncoupled_vf(spec, i), models._uncoupled_field(spec, i),
                     lambda shape: native_states(shape, centers[i])),
                    (models.polar_uncoupled_vf(spec, i, frames[i]),
                     models._polar_field(spec, i, frames[i]), polar_states)):
                cases += [(vf, lambda s, f=field: f(s[..., 0], s[..., 1]), states(shape))
                          for shape in ((), (9,), (3, 4))]
        for vf, components, state in cases:
            out = vf(state)
            assert out.dtype == np.float64 and out.shape == state.shape
            want = np.stack(np.broadcast_arrays(*components(state)), axis=-1)
            assert np.array_equal(out, want.reshape(state.shape))
            assert not np.shares_memory(out, vf(state))


def test_lockstep_frames_keep_single_run_bits():
    """One settle run for all oscillators gives each oscillator's frame of a
    single-oscillator run to the last bit."""
    pinned = {
        "van_der_pol": [((4.330168573173501e-05, 6.454414212731263e-05), -1.0),
                        ((-2.823588468070389e-05, 8.68898110069773e-05), -1.0)],
        "wilson_cowan": [((0.5794512733264336, 0.517884417096608), 1.0),
                         ((0.6068150974653551, 0.5251665729465371), 1.0)],
    }
    for kind in KINDS:
        frames = models.estimate_frame(models.default_spec(kind))
        want = pinned.get(kind, [((0.0, 0.0), 1.0)] * 2)
        assert [(f.center, f.orientation) for f in frames] == want


def test_jacobians_match_finite_differences():
    h = 1e-6
    for kind in KINDS:
        spec = models.default_spec(kind)
        for i in range(2):
            vf = models.uncoupled_vf(spec, i)
            jac = models.uncoupled_jacobian(spec, i)
            state = np.array([0.4, 0.9])
            num = np.empty((2, 2))
            for k in range(2):
                dp = np.zeros(2)
                dp[k] = h
                num[:, k] = (vf(state + dp) - vf(state - dp)) / (2 * h)
            np.testing.assert_allclose(jac(state), num, atol=1e-6)


def _reference_jacobian(spec, i, state):
    """Hand-derived Jacobian of oscillator i's uncoupled equations."""
    p = {k: spec.param(k, i) for k in spec.params}
    u, v = state
    if spec.kind == "radial_isochron_clock":
        return np.array([[0.0, 0.0], [0.0, p["a"] * (1.0 - 3.0 * v ** 2)]])
    if spec.kind == "canonical":
        return np.array([[0.0, 2.0 * p["alpha"] * p["a"] * v],
                         [0.0, p["alpha"] * (1.0 - 3.0 * v ** 2)]])
    if spec.kind == "van_der_pol":
        mu = p["mu"]
        return np.array([[0.0, 1.0], [-2.0 * mu * u * v - 1.0, mu * (1.0 - u ** 2)]])
    su = models.sigmoid(p["rho_x"] + p["a"] * u - p["b"] * v)
    sv = models.sigmoid(p["rho_y"] + p["c"] * u - p["d"] * v)
    du, dv = su * (1 - su), sv * (1 - sv)
    return np.array([[-1 + p["a"] * du, -p["b"] * du],
                     [p["c"] * dv, -1 - p["d"] * dv]])


def _polar_reference_jacobian(spec, i, frame, state):
    """Chain rule: the reference Cartesian Jacobian through the frame map."""
    s, (cx, cy) = frame.orientation, frame.center
    theta, r = state
    ca, sa = np.cos(s * theta), np.sin(s * theta)
    xy = np.array([cx + r * ca, cy + r * sa])
    fx, fy = models.uncoupled_vf(spec, i)(xy)
    d_xy = np.array([[-s * r * sa, ca], [s * r * ca, sa]])   # d(x, y)/d(theta, r)
    (fx_t, fx_r), (fy_t, fy_r) = _reference_jacobian(spec, i, xy) @ d_xy
    return np.array([
        [s * (fy_t * ca - fx_t * sa - s * (fy * sa + fx * ca)) / r,
         s * (fy_r * ca - fx_r * sa) / r - s * (fy * ca - fx * sa) / r ** 2],
        [fx_t * ca + fy_t * sa + s * (fy * ca - fx * sa), fx_r * ca + fy_r * sa],
    ])


def test_jacobians_exact_to_rounding():
    """The complex-step Jacobian matches the hand-derived one to rounding."""
    rng = np.random.default_rng(1)
    for kind in KINDS:
        spec = models.default_spec(kind)
        if kind in ("radial_isochron_clock", "canonical"):
            states = np.stack([rng.uniform(0.0, 2.0 * np.pi, 200),
                               rng.uniform(0.05, 2.5, 200)], axis=-1)
        else:
            states = rng.uniform(-2.5, 2.5, (200, 2))
        for i in range(2):
            jac = models.uncoupled_jacobian(spec, i)
            for state in states:
                ref = _reference_jacobian(spec, i, state)
                err = np.abs(jac(state) - ref).max()
                assert err <= 1e-14 * max(1.0, np.abs(ref).max()), (kind, i, state)


def test_polar_jacobians_of_cartesian_kinds_exact():
    """On Cartesian kinds the polar Jacobian is the chain rule to 1e-12."""
    rng = np.random.default_rng(2)
    for kind, span in (("van_der_pol", (0.5, 3.0)), ("wilson_cowan", (0.1, 0.4))):
        spec = models.default_spec(kind)
        frames = models.estimate_frame(spec)
        for i in range(2):
            frame = frames[i]
            jac = models.polar_uncoupled_jacobian(spec, i, frame)
            states = np.stack([rng.uniform(0.0, 2.0 * np.pi, 100),
                               rng.uniform(*span, 100)], axis=-1)
            for state in states:
                ref = _polar_reference_jacobian(spec, i, frame, state)
                assert np.abs(jac(state) - ref).max() <= 1e-12, (kind, i, state)


def test_wilson_cowan_equilibrium_is_fixed_point():
    spec = models.default_spec("wilson_cowan")
    for i in range(2):
        x0, y0 = models.wc_equilibrium(spec, i)
        d = models.uncoupled_vf(spec, i)(np.array([x0, y0]))
        assert np.abs(d).max() < 1e-12


def test_frames_polar_identity_cartesian_centered():
    for kind in ("radial_isochron_clock", "canonical"):
        frame = models.estimate_frame(models.default_spec(kind))[0]
        assert frame.center == (0.0, 0.0)
        assert frame.orientation == 1.0
    vdp = models.estimate_frame(models.default_spec("van_der_pol"))[0]
    assert vdp.orientation == -1.0
    wc = models.estimate_frame(models.default_spec("wilson_cowan"))[0]
    assert 0.0 < wc.center[0] < 1.0 and 0.0 < wc.center[1] < 1.0


def test_polar_cartesian_round_trip():
    frame = models.ObservableFrame(center=(0.3, -0.2), orientation=-1.0)
    tr = np.array([[0.5, 1.2], [4.0, 0.7]])
    back = models.cart_to_polar(models.polar_to_cart(tr, frame), frame)
    np.testing.assert_allclose(np.mod(back[:, 0], 2 * np.pi),
                               np.mod(tr[:, 0], 2 * np.pi), atol=1e-12)
    np.testing.assert_allclose(back[:, 1], tr[:, 1], atol=1e-12)


def test_polar_field_conversion_consistent():
    spec = models.default_spec("van_der_pol")
    frame = models.estimate_frame(spec)[0]
    polar_vf = models.polar_uncoupled_vf(spec, 0, frame)
    cart_vf = models.uncoupled_vf(spec, 0)
    state = np.array([1.0, 2.0])
    xy = models.polar_to_cart(state, frame)
    f_pol = polar_vf(state)
    # Push the polar derivative back to Cartesian and compare.
    s = frame.orientation
    ang = s * state[0]
    dx = f_pol[1] * np.cos(ang) - state[1] * np.sin(ang) * s * f_pol[0]
    dy = f_pol[1] * np.sin(ang) + state[1] * np.cos(ang) * s * f_pol[0]
    np.testing.assert_allclose([dx, dy], cart_vf(xy), atol=1e-12)


def test_analytic_ground_truth_values():
    spec = models.default_spec("radial_isochron_clock")
    gt = models.analytic_ground_truth(spec, 0)
    assert gt.lam == -2.0 and gt.omega == 1.0
    assert gt.phi(0.7, 1.3) == pytest.approx(0.7)
    assert gt.sigma(0.0, 1.0) == 0.0
    r = 1.2
    sig = gt.sigma(0.0, r)
    assert gt.k_r(0.0, sig) == pytest.approx(r)

    can = models.analytic_ground_truth(models.default_spec("canonical"), 1)
    a, alpha = 1.0, 2.0
    assert can.lam == -2.0 * alpha and can.omega == pytest.approx(1.0 + alpha * a)
    assert can.phi(0.5, 1.4) == pytest.approx(0.5 + a * np.log(1.4))
    s = can.sigma(0.0, 1.4)
    assert can.k_r(0.0, s) == pytest.approx(1.4)
    assert can.k_theta(0.5 + a * np.log(1.4), s) == pytest.approx(0.5)


def test_analytic_forms_missing_for_cartesian_kinds():
    for kind in ("van_der_pol", "wilson_cowan"):
        with pytest.raises(NoAnalyticForm):
            models.analytic_ground_truth(models.default_spec(kind), 0)
        with pytest.raises(NoAnalyticForm):
            models.analytic_reduced_coupling_terms(models.default_spec(kind), 1, 0)


def test_reduced_coupling_tables_scale_with_strength():
    spec = models.default_spec("radial_isochron_clock")
    tables = models.analytic_reduced_coupling_terms(spec, 1, 0)
    eps = spec.coupling[1, 0]
    assert tables["phi"][(0, 0)][("cos", "sin")] == pytest.approx(eps)
    assert tables["sigma"][(0, 0)][("sin", "sin")] == pytest.approx(eps)
    assert tables["phi"][(1, 0)][("cos", "sin")] == pytest.approx(-eps)
    assert tables["phi"][(0, 1)][("cos", "sin")] == pytest.approx(eps)
