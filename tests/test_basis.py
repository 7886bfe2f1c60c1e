import numpy as np
import pytest

from pharec import basis
from pharec.errors import ArityMismatch


def manual_single_value(term, theta, r):
    ang = {"1": 1.0, "cos": np.cos(term.k * theta),
           "sin": np.sin(term.k * theta)}[term.trig]
    return r ** term.n * ang


def manual_pair_value(term, ti, ri, tj, rj):
    own = {"1": 1.0, "cos": np.cos(term.own_k * ti),
           "sin": np.sin(term.own_k * ti)}[term.own_trig]
    inp = {"cos": np.cos(term.inp_k * tj),
           "sin": np.sin(term.inp_k * tj)}[term.inp_trig]
    return ri ** term.mi * rj ** term.mj * own * inp


def flat(outputs):
    """series_eval_grad outputs as one flat list of arrays."""
    return [a for out in outputs for a in (out if isinstance(out, tuple) else (out,))]


def test_single_size_and_enumeration():
    spec = basis.SingleBasisSpec(4, 5)
    assert spec.size == 5 * 11
    terms = basis.single_terms(spec)
    assert len(terms) == spec.size
    theta, r = 0.7, 1.3
    row = basis.single_row(spec, theta, r)
    for t in terms:
        assert row[t.index] == pytest.approx(manual_single_value(t, theta, r))


def test_pair_size_and_enumeration():
    for mode, size in (("observable", 10 * 5 * 4), ("reduced", 16 * 5 * 4)):
        spec = basis.PairBasisSpec(3, 2, 2, mode)
        assert spec.size == size
        terms = basis.pair_terms(spec)
        assert len(terms) == spec.size
        pt = (0.4, 1.1, 2.2, 0.9)
        row = basis.pair_row(spec, *pt)
        for t in terms:
            assert row[t.index] == pytest.approx(manual_pair_value(t, *pt))


def test_observable_mode_bounds_total_amplitude_power():
    spec = basis.PairBasisSpec(3, 2, 2, "observable")
    assert all(mi + mj <= 3 for mi, mj in spec.amplitude_pairs())
    red = basis.PairBasisSpec(2, 2, 2, "reduced")
    assert (2, 2) in red.amplitude_pairs()


def test_pair_basis_has_no_input_independent_terms():
    # Averaging any column over the input angle must give zero.
    spec = basis.PairBasisSpec(2, 2, 2, "observable")
    tj = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    rows = basis.pair_row(spec, np.full_like(tj, 0.3), np.full_like(tj, 1.1),
                          tj, np.full_like(tj, 0.9))
    np.testing.assert_allclose(rows.mean(axis=0), 0.0, atol=1e-12)


def test_rows_broadcast_over_leading_axes():
    spec = basis.SingleBasisSpec(2, 3)
    theta = np.linspace(0, 2, 12).reshape(3, 4)
    r = np.linspace(0.5, 1.5, 12).reshape(3, 4)
    rows = basis.single_row(spec, theta, r)
    assert rows.shape == (3, 4, spec.size)
    np.testing.assert_allclose(rows[1, 2],
                               basis.single_row(spec, theta[1, 2], r[1, 2]))
    rng = np.random.default_rng(2)
    for spec, grid in ((spec, (theta, r)),
                       (basis.PairBasisSpec(2, 1, 2, "observable"),
                        (theta, r, theta[::-1], r[:, ::-1]))):
        series = basis.FittedSeries(spec, rng.normal(size=spec.size))
        value = basis.series_eval(series, *grid)
        grads = basis.series_eval_grad(series, *grid)
        assert value.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            pt = [g[idx] for g in grid]
            assert value[idx] == pytest.approx(basis.series_eval(series, *pt))
            for got, want in zip(flat(grads), flat(basis.series_eval_grad(series, *pt))):
                assert got.shape == (3, 4)
                assert got[idx] == pytest.approx(want)


def test_series_eval_and_gradients_single():
    spec = basis.SingleBasisSpec(3, 4)
    rng = np.random.default_rng(0)
    series = basis.FittedSeries(spec, rng.normal(size=spec.size))
    th, r = 1.1, 1.2
    h = 1e-6
    val, dth, dr = basis.series_eval_grad(series, th, r)
    assert val == pytest.approx(basis.series_eval(series, th, r))
    assert dth == pytest.approx((basis.series_eval(series, th + h, r)
                                 - basis.series_eval(series, th - h, r)) / (2 * h), abs=1e-6)
    assert dr == pytest.approx((basis.series_eval(series, th, r + h)
                                - basis.series_eval(series, th, r - h)) / (2 * h), abs=1e-6)


def test_series_eval_and_gradients_pair():
    spec = basis.PairBasisSpec(2, 2, 2, "reduced")
    rng = np.random.default_rng(1)
    series = basis.FittedSeries(spec, rng.normal(size=spec.size))
    pt = [0.3, 1.1, 2.0, 0.8]
    h = 1e-6
    val, (dti, dtj), (dri, drj) = basis.series_eval_grad(series, *pt)
    assert val == pytest.approx(basis.series_eval(series, *pt))
    for k, grad in ((0, dti), (1, dri), (2, dtj), (3, drj)):
        hi = list(pt)
        lo = list(pt)
        hi[k] += h
        lo[k] -= h
        num = (basis.series_eval(series, *hi) - basis.series_eval(series, *lo)) / (2 * h)
        assert grad == pytest.approx(num, abs=1e-6)


def test_fitted_maps_are_series_eval_bit_for_bit():
    """TransformSet.inverse/forward/inverse_grad and eval_uncoupled/
    eval_coupling give exactly series_eval/series_eval_grad of their series,
    on a batch and at a scalar point: one gemv per coefficient vector, never
    a row @ matrix (gemm), whose last bit can differ."""
    from pharec import transforms
    from pharec import vf_reconstruction as vfr
    rng = np.random.default_rng(4)
    single, pair = basis.SingleBasisSpec(4, 5), basis.PairBasisSpec(3, 2, 2)

    def fitted(spec):
        return basis.FittedSeries(spec, rng.normal(size=spec.size))

    ts = transforms.TransformSet(*(fitted(single) for _ in range(4)),
                                 r_domain=(0.8, 1.3), sigma_domain=(-0.3, 0.3))
    nvf = vfr.NetworkVF(2, uncoupled={(0, c): fitted(single) for c in vfr.COMPONENTS},
                        coupling={(0, 1, c): fitted(pair) for c in vfr.COMPONENTS})
    batch = [rng.uniform(0.0, 2 * np.pi, (13, 7)), rng.uniform(0.8, 1.3, (13, 7))]
    for th, r in (batch, (0.7, 1.1)):
        pt = (th, r, np.add(th, 1.0), np.multiply(r, 0.9))
        val, dth, dr = basis.series_eval_grad(ts.inverse_phase, th, r)
        pairs = [
            (ts.inverse(th, r), (th + basis.series_eval(ts.inverse_phase, th, r),
                                 basis.series_eval(ts.inverse_amplitude, th, r))),
            (ts.forward(th, r), (th + basis.series_eval(ts.forward_angle, th, r),
                                 basis.series_eval(ts.forward_radius, th, r))),
            (ts.inverse_grad(th, r)[0], (th + val, 1.0 + dth, dr)),
            (ts.inverse_grad(th, r)[1],
             basis.series_eval_grad(ts.inverse_amplitude, th, r)),
            ((vfr.eval_uncoupled(nvf, 0, th, r),),
             (np.stack([basis.series_eval(nvf.uncoupled[(0, c)], th, r)
                        for c in vfr.COMPONENTS], axis=-1),)),
            ((vfr.eval_coupling(nvf, 0, 1, *pt),),
             (np.stack([basis.series_eval(nvf.coupling[(0, 1, c)], *pt)
                        for c in vfr.COMPONENTS], axis=-1),)),
        ]
        for got, want in pairs:
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def test_coefficient_lookup():
    spec = basis.SingleBasisSpec(2, 2)
    series = basis.FittedSeries(spec, np.arange(spec.size, dtype=float))
    t = [x for x in basis.single_terms(spec) if x.n == 1 and x.k == 0][0]
    assert series.coefficient(n=1, k=0) == float(t.index)
    with pytest.raises(KeyError):
        series.coefficient(n=1)  # matches several terms


def test_series_round_trip_and_arity():
    spec = basis.PairBasisSpec(1, 1, 1, "observable")
    series = basis.FittedSeries(spec, np.arange(spec.size, dtype=float))
    again = basis.FittedSeries.from_dict(series.to_dict(), "observable")
    np.testing.assert_array_equal(again.coefficients, series.coefficients)
    assert again.spec == spec
    with pytest.raises(ArityMismatch):
        basis.series_eval(series, 0.1, 1.0)
    # A spec decodes from its own fields: an unknown type or field is an error.
    for bad, error in (({"type": "triple"}, KeyError), ({"n_max": 1}, TypeError),
                       ({"extra": 0}, TypeError)):
        with pytest.raises(error):
            basis.FittedSeries.from_dict(dict(series.to_dict(),
                                              spec=dict(spec.to_dict(), **bad)), "observable")


def test_series_spec_must_be_of_the_readers_kind():
    """A series decodes only with the spec kind its reader asks for: gamma a
    single spec with n_max 0, "single" any single spec, and a pair mode a
    pair spec of that mode; any other spec is a ValueError naming it."""
    specs = {"gamma": basis.SingleBasisSpec(0, 3), "single": basis.SingleBasisSpec(2, 3),
             "observable": basis.PairBasisSpec(1, 1, 1, "observable"),
             "reduced": basis.PairBasisSpec(1, 1, 1, "reduced")}
    accepted = {"gamma": {"gamma"}, "single": {"gamma", "single"},
                "observable": {"observable"}, "reduced": {"reduced"}}
    for have, spec in specs.items():
        d = basis.FittedSeries(spec, np.arange(spec.size, dtype=float)).to_dict()
        for kind in specs:
            if have in accepted[kind]:
                assert basis.FittedSeries.from_dict(d, kind).spec == spec
            else:
                with pytest.raises(ValueError, match=f"must be a {kind} spec"):
                    basis.FittedSeries.from_dict(d, kind)
    table = basis.FittedSeries.to_table({(i, j, "phi"): basis.FittedSeries(
        specs["observable"], np.zeros(specs["observable"].size)) for i, j in ((0, 1), (1, 0))})
    with pytest.raises(ValueError, match="must be a reduced spec"):
        basis.FittedSeries.from_table(table, 2, 2, ("phi",), "reduced")


def test_series_table_holds_exactly_every_oscillator_or_pair():
    """to_table keys each series "i:name" or "i:j:name"; from_table inverts
    it and rejects a table with one series missing or one too many."""
    spec = basis.SingleBasisSpec(1, 1)
    names = ("theta", "r")
    for arity, nodes in ((1, [(0,), (1,), (2,)]),
                         (2, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])):
        series = {(*node, name): basis.FittedSeries(spec, np.full(spec.size, float(k)))
                  for k, node in enumerate(nodes) for name in names}
        table = basis.FittedSeries.to_table(series)
        assert ":".join(map(str, nodes[-1])) + ":r" in table
        again = basis.FittedSeries.from_table(table, 3, arity, names, "single")
        assert again.keys() == series.keys()
        for key, s in series.items():
            np.testing.assert_array_equal(again[key].coefficients, s.coefficients)
        first = next(iter(table))
        for bad, n in ((dict(list(table.items())[1:]), 3),
                       (dict(table, **{"0:" + first: table[first]}), 3),
                       (table, 2), (table, 4)):
            with pytest.raises(ValueError, match="missing or unexpected"):
                basis.FittedSeries.from_table(bad, n, arity, names, "single")


def test_coefficient_length_validated():
    """Coefficients are one flat vector of the basis size, every entry finite."""
    spec = basis.SingleBasisSpec(1, 1)
    for bad in (np.zeros(2), np.zeros((spec.size, 1)), np.r_[np.zeros(spec.size - 1), np.nan],
                np.r_[np.zeros(spec.size - 1), np.inf]):
        with pytest.raises(ValueError):
            basis.FittedSeries(spec, bad)


def test_harmonics_match_long_double_at_large_angles():
    """The recurrence's error does not grow with |k*theta|: 20,000 angles up
    to 600 rad at k_max 32 stay within 1e-14 of long-double cos/sin."""
    theta = np.random.default_rng(11).uniform(0.0, 600.0, 20_000)
    val, _ = basis._harmonics(theta, 32, False, theta.shape, False)
    kt = theta.astype(np.longdouble)[:, None] * np.arange(1, 33)
    assert np.abs(val[:, 0::2] - np.cos(kt)).max() <= 1e-14
    assert np.abs(val[:, 1::2] - np.sin(kt)).max() <= 1e-14


def test_harmonics_shape_and_bit_contract():
    """A strided block of angles keeps the bits of row-by-row evaluation, the
    derivative columns are -k sin and k cos of the same values, and k_max 0
    gives only the constant column (or none)."""
    theta = np.random.default_rng(5).uniform(0.0, 2 * np.pi, (40, 9))[:, 1:]
    k = np.arange(1, 7)
    for constant in (True, False):
        first = int(constant)
        val, der = basis._harmonics(theta, 6, constant, theta.shape, True)
        assert val.shape == der.shape == theta.shape + (first + 12,)
        for i, row in enumerate(theta):
            v, d = basis._harmonics(row, 6, constant, row.shape, True)
            assert v.tobytes() == val[i].tobytes()
            assert d.tobytes() == der[i].tobytes()
        assert np.all(val[..., :first] == 1.0) and np.all(der[..., :first] == 0.0)
        np.testing.assert_array_equal(der[..., first::2], -k * val[..., first + 1::2])
        np.testing.assert_array_equal(der[..., first + 1::2], k * val[..., first::2])
        val, der = basis._harmonics(theta, 0, constant, theta.shape, True)
        assert val.shape == der.shape == theta.shape + (first,)
        assert np.all(val == 1.0) and np.all(der == 0.0)


def test_scalar_angles_broadcast_against_array_radii():
    r = np.linspace(0.5, 1.5, 7)
    spec = basis.SingleBasisSpec(2, 3)
    rows = basis.single_row(spec, 0.7, r)
    assert rows.shape == (7, spec.size)
    for i, ri in enumerate(r):
        np.testing.assert_allclose(
            rows[i], [manual_single_value(t, 0.7, ri) for t in basis.single_terms(spec)],
            rtol=1e-13, atol=1e-15)
    spec = basis.PairBasisSpec(2, 2, 2, "observable")
    rows = basis.pair_row(spec, 0.4, r, 2.2, 0.9)
    assert rows.shape == (7, spec.size)
    for i, ri in enumerate(r):
        np.testing.assert_allclose(
            rows[i], [manual_pair_value(t, 0.4, ri, 2.2, 0.9) for t in basis.pair_terms(spec)],
            rtol=1e-13, atol=1e-15)
