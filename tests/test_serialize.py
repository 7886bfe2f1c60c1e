import numpy as np
import pytest

from pharec import serialize
from pharec.errors import IoError
from pharec.vf_reconstruction import Trial


def test_json_round_trip_and_schema(tmp_path):
    path = str(tmp_path / "doc.json")
    serialize.write_json(path, {"x": 1.5, "nested": {"b": [1, 2]}}, "demo")
    doc = serialize.read_json(path, "demo")
    assert doc["x"] == 1.5 and doc["schema"] == "demo/v1"
    with pytest.raises(IoError):
        serialize.read_json(path, "other")
    with pytest.raises(IoError):
        serialize.read_json(str(tmp_path / "missing.json"), "demo")


def test_json_output_is_stable(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    payload = {"z": 1.0, "a": [3.0, 2.0], "m": {"k": 0.1}}
    serialize.write_json(p1, payload, "demo")
    serialize.write_json(p2, dict(reversed(list(payload.items()))), "demo")
    assert open(p1, "rb").read() == open(p2, "rb").read()


def make_trial(seed=0, n=50):
    rng = np.random.default_rng(seed)
    return Trial(times=np.arange(n) * 0.01,
                 theta=rng.normal(size=(n, 2)),
                 r=1.0 + 0.1 * rng.normal(size=(n, 2)))


def test_trial_csv_exact_round_trip(tmp_path):
    trial = make_trial()
    # A decimal with no exact binary form, a tiny normal, negative zero and
    # the smallest subnormal, each written with 17 significant digits.
    trial.theta[1] = [0.1, -0.0]
    trial.r[1] = [1e-300, 5e-324]
    path = str(tmp_path / "trial.csv")
    serialize.write_trial_csv(path, trial)
    lines = open(path).read().splitlines()
    assert lines[0] == "t,theta_1,r_1,theta_2,r_2"
    assert lines[2] == "0.01,0.10000000000000001,1e-300,-0,4.9406564584124654e-324"
    again = serialize.read_trial_csv(path)
    np.testing.assert_array_equal(again.times, trial.times)
    np.testing.assert_array_equal(again.theta, trial.theta)
    np.testing.assert_array_equal(again.r, trial.r)
    assert np.signbit(again.theta[1, 1])


def test_trial_set_round_trip(tmp_path):
    trials = [make_trial(s) for s in range(3)]
    out = str(tmp_path / "trials")
    names = serialize.write_trial_set(out, trials, 0.01, {"kind": "demo", "seed": 1})
    assert names == ["trial_0000.csv", "trial_0001.csv", "trial_0002.csv"]
    again = serialize.read_trial_set(out)
    _, step, metadata = serialize.read_trial_manifest(out)
    assert step == 0.01 and metadata == {"kind": "demo", "seed": 1}
    np.testing.assert_array_equal(again[2].r, trials[2].r)


def test_heatmap_csv(tmp_path):
    path = str(tmp_path / "h.csv")
    mat = np.array([[1.0, -0.5], [0.25, 3.0]])
    serialize.write_heatmap_csv(path, mat)
    np.testing.assert_array_equal(np.loadtxt(path, delimiter=","), mat)


def test_write_rows_bytes_match_savetxt(tmp_path):
    rng = np.random.default_rng(9)
    for shape in [(3, 1), (7, 3), (400, 5)]:
        rows = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        rows.flat[:3] = [-0.0, 5e-324, 1e300]
        header = [f"c{k}" for k in range(shape[1])]
        for names, kwargs in [(header, {"header": ",".join(header), "comments": ""}),
                              (None, {})]:
            got, want = str(tmp_path / "got.csv"), str(tmp_path / "want.csv")
            serialize.write_rows(got, rows, names)
            np.savetxt(want, rows, fmt="%.17g", delimiter=",", **kwargs)
            assert open(got, "rb").read() == open(want, "rb").read()
