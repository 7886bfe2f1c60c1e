import json
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

from pharec import cli, pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_missing_config_is_usage_error(capsys):
    assert cli.main(["pipeline"]) == cli.EXIT_USAGE
    assert "config" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["pipeline", "--config", str(bad)]) == cli.EXIT_USAGE


def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    """A config file holding valid JSON that is not an object exits 2 with
    one stderr line, through compare --from and through simulate --config."""
    (tmp_path / "config.json").write_text("[1, 2]")
    (tmp_path / "string.json").write_text('"x"')
    for argv in (["compare", "--from", str(tmp_path)],
                 ["simulate", "--config", str(tmp_path / "string.json")]):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "JSON object" in err


def test_invalid_config_value_is_usage_error(tmp_path):
    from pharec import pipeline, serialize
    doc = pipeline.default_config("canonical", str(tmp_path)).to_dict()
    path = str(tmp_path / "cfg.json")
    for key, value in (("n_trials", 0), ("seed", 1.5)):
        serialize.write_json(path, dict(doc, **{key: value}), "config")
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_USAGE


@pytest.mark.parametrize("out_dir", [5, None, ""], ids=["number", "null", "empty"])
def test_config_out_dir_must_be_a_path(tmp_path, capsys, out_dir):
    """An out_dir that is not a non-empty string exits 2 with one stderr line
    naming the key, before any stage runs."""
    from pharec import pipeline, serialize
    doc = pipeline.default_config("canonical", str(tmp_path)).to_dict()
    path = str(tmp_path / "cfg.json")
    serialize.write_json(path, dict(doc, out_dir=out_dir), "config")
    assert cli.main(["limit-cycle", "--config", path]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "out_dir" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_removed_config_keys_are_usage_errors(tmp_path, capsys):
    """A config.json that still holds gamma_harmonics, grid_seed, tolerances
    or one of the method settings that became per-kind or module constants
    exits 2 and names the key, both through --config and through compare
    --from."""
    from pharec import pipeline, serialize
    doc = pipeline.default_config("canonical", str(tmp_path)).to_dict()
    for key, value in (("gamma_harmonics", None), ("grid_seed", None),
                       ("tolerances", dict(pipeline.TOLERANCES)),
                       ("transform_orders", None), ("trial_periods", 6.0),
                       ("radial_span", [0.75, 1.35]), ("ic_angles", 21), ("ic_radii", 15),
                       ("single_orders", [4, 5]), ("transform_orders", [4, 5]),
                       ("pair_orders", [3, 2, 2]), ("reduced_orders", [2, 2, 2]),
                       ("grid_points", 4000), ("row_budget", 60000)):
        serialize.write_json(str(tmp_path / "config.json"), dict(doc, **{key: value}),
                             "config")
        for argv in (["simulate", "--config", str(tmp_path / "config.json")],
                     ["compare", "--from", str(tmp_path)]):
            assert cli.main(argv) == cli.EXIT_USAGE
            assert key in capsys.readouterr().err


def test_bad_seed_override_leaves_config_untouched(tmp_path, capsys):
    """--seed -1 is rejected with exit 2 before config.json is rewritten."""
    from pharec import pipeline, serialize
    doc = pipeline.default_config("canonical", str(tmp_path)).to_dict()
    serialize.write_json(str(tmp_path / "config.json"), doc, "config")
    before = (tmp_path / "config.json").read_bytes()
    assert cli.main(["simulate", "--from", str(tmp_path), "--seed", "-1"]) \
        == cli.EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    assert (tmp_path / "config.json").read_bytes() == before


def test_extract_rejects_one_column_or_one_row(tmp_path, capsys):
    for name, body in (("column.csv", "t\n0.0\n0.1\n0.2\n"),
                       ("row.csv", "t,value\n0.0,1.0\n")):
        src = tmp_path / name
        src.write_text(body)
        out = tmp_path / "out.csv"
        assert cli.main(["extract", str(src), "--out", str(out)]) == cli.EXIT_USAGE
        assert "at least two rows" in capsys.readouterr().err
        assert not out.exists()


def test_extract_rejects_non_finite_cells(tmp_path, capsys):
    """A nan or inf value or a nan time exits 2 with one line, no traceback."""
    for name, bad_row in (("nan_value.csv", "0.1,nan"), ("inf_value.csv", "0.1,inf"),
                          ("nan_time.csv", "nan,1.0")):
        src = tmp_path / name
        src.write_text(f"t,value\n0.0,1.0\n{bad_row}\n0.2,1.0\n0.3,2.0\n")
        out = tmp_path / "out.csv"
        assert cli.main(["extract", str(src), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "finite" in err and len(err.splitlines()) == 1
        assert not out.exists()


def test_extract_rejects_times_that_do_not_increase(tmp_path, capsys):
    """Equal, decreasing or repeated times exit 2 with one line, no traceback."""
    t = np.arange(400) * 0.05
    values = np.sin(2 * np.pi * t)
    repeated = t.copy()
    repeated[200] = repeated[199]
    for name, times in (("equal.csv", np.zeros_like(t)), ("decreasing.csv", -t),
                        ("repeated.csv", repeated)):
        src = tmp_path / name
        src.write_text("t,value\n" + "".join(f"{a:.17g},{b:.17g}\n"
                                             for a, b in zip(times, values)))
        out = tmp_path / "out.csv"
        assert cli.main(["extract", str(src), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "strictly increase" in err and len(err.splitlines()) == 1
        assert not out.exists()


def test_extract_rejects_uneven_times(tmp_path, capsys):
    """Times that increase in uneven steps are an input error: exit 2 with
    one line, no output file."""
    t = np.arange(400) * 0.05
    t[200:] += 0.01
    src = tmp_path / "uneven.csv"
    src.write_text("t,value\n" + "".join(f"{a:.17g},{b:.17g}\n"
                                         for a, b in zip(t, np.sin(2 * np.pi * t))))
    out = tmp_path / "out.csv"
    assert cli.main(["extract", str(src), "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "equal steps" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_reconstruct_vf_rejects_uneven_trial_times(tmp_path, capsys):
    """A trial file whose times increase in uneven steps exits 2 with one
    line and writes no network_vf.json."""
    from pharec import pipeline, serialize
    from pharec.vf_reconstruction import Trial
    doc = pipeline.default_config("canonical", str(tmp_path)).to_dict()
    serialize.write_json(str(tmp_path / "config.json"), doc, "config")
    t = np.arange(200) * 0.05
    t[100:] += 0.01
    theta = np.mod(np.stack([t, 1.3 * t], axis=1), 2 * np.pi)
    serialize.write_trial_set(str(tmp_path / "trials"),
                              [Trial(t, theta, np.ones_like(theta))], 0.05, {})
    assert cli.main(["reconstruct-vf", "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "not uniform" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "network_vf.json").exists()


def test_reconstruct_vf_rejects_non_finite_trial_values(tmp_path, capsys):
    """A nan in r_1 over 50 rows or in a single row, or an inf angle, in a
    trial file exits 2 with one line naming the file and writes no
    network_vf.json."""
    from pharec import pipeline, serialize
    from pharec.vf_reconstruction import Trial
    doc = pipeline.default_config("canonical", str(tmp_path)).to_dict()
    serialize.write_json(str(tmp_path / "config.json"), doc, "config")
    t = np.arange(200) * 0.05
    for rows, column, value in ((slice(100, 150), "r", np.nan),
                                (slice(120, 121), "r", np.nan),
                                (slice(10, 11), "theta", np.inf)):
        theta = np.mod(np.stack([t, 1.3 * t], axis=1), 2 * np.pi)
        trial = Trial(t, theta, np.ones_like(theta))
        getattr(trial, column)[rows, 0] = value
        serialize.write_trial_set(str(tmp_path / "trials"), [trial], 0.05, {})
        assert cli.main(["reconstruct-vf", "--from", str(tmp_path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "trial_0000.npy" in err and "finite" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "network_vf.json").exists()


@pytest.mark.parametrize("files", [[], "trial_0000.csv", ["trial_0000.csv"] * 2],
                         ids=["no_files", "a_string", "a_file_twice"])
def test_reconstruct_vf_rejects_empty_trial_manifest(tmp_path, capsys, files):
    """A trials manifest whose files are not a non-empty list of distinct
    names (none, one name as a string, or one file twice) exits 2 with one
    line naming the manifest and writes no network_vf.json."""
    from pharec import pipeline, serialize
    doc = pipeline.default_config("canonical", str(tmp_path)).to_dict()
    serialize.write_json(str(tmp_path / "config.json"), doc, "config")
    serialize.write_trial_set(str(tmp_path / "trials"), [_trial(2)], 0.05, {})
    serialize.write_json(str(tmp_path / "trials" / "manifest.json"),
                         {"files": files, "step": 0.05, "metadata": {}}, "trials")
    assert cli.main(["reconstruct-vf", "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / "trials" / "manifest.json") in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "network_vf.json").exists()


def test_extract_subcommand(tmp_path):
    t = np.arange(0, 60.0, 0.01)
    src = tmp_path / "signal.csv"
    with open(src, "w") as fh:
        fh.write("t,value\n")
        for tk, vk in zip(t, np.cos(2 * np.pi * t)):
            fh.write(f"{tk},{vk}\n")
    out = tmp_path / "phases.csv"
    assert cli.main(["extract", str(src), "--out", str(out)]) == cli.EXIT_PASS
    lines = open(out).read().splitlines()
    assert lines[0] == "t,theta,r,edge"
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"0", "1"}
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[1] == 4
    good = data[:, 3] == 0
    np.testing.assert_allclose(data[good, 2], 1.0, rtol=0.01)


IMPORT_GRAPH = """
import sys
import numpy as np

def loaded():
    return [m for m in ("scipy.optimize", "scipy.signal") if m in sys.modules]

import pharec.pipeline
print(loaded())
from pharec import cli
print(loaded())
t = np.arange(0.0, 20.0, 0.01)
np.savetxt(sys.argv[1], np.stack([t, np.sin(2.0 * np.pi * t)], axis=1),
           delimiter=",", header="t,value", comments="")
print(cli.main(["extract", sys.argv[1], "--out", sys.argv[2]]), "scipy.signal" in sys.modules)
"""


def test_only_extract_loads_scipy_signal(tmp_path):
    """A fresh process that imports the pipeline or the CLI loads neither
    scipy.optimize nor scipy.signal; extract loads scipy.signal and runs."""
    import pharec

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pharec.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, str(tmp_path / "signal.csv"),
         str(tmp_path / "phases.csv")], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]", "0 True"]
    assert (tmp_path / "phases.csv").exists()


def test_stage_rerun_is_bitwise_stable(pipeline_runs):
    """Re-running one stage from the artifact directory reproduces its
    output byte for byte."""
    run = pipeline_runs["radial_isochron_clock"]
    path = os.path.join(run.out_dir, "transforms.json")
    before = open(path, "rb").read()
    assert cli.main(["transforms", "--from", run.out_dir]) == cli.EXIT_PASS
    assert open(path, "rb").read() == before


def test_malformed_artifact_is_usage_error(pipeline_runs, tmp_path, capsys):
    """A limit_cycle.json whose cycle lacks lam makes the transforms stage
    exit 2 with one stderr line naming the file, and write nothing."""
    run = pipeline_runs["radial_isochron_clock"]
    for name in ("config.json", "limit_cycle.json"):
        shutil.copyfile(os.path.join(run.out_dir, name), tmp_path / name)
    doc = json.loads((tmp_path / "limit_cycle.json").read_text())
    del doc["oscillators"][1]["cycle"]["lam"]
    (tmp_path / "limit_cycle.json").write_text(json.dumps(doc))
    assert cli.main(["transforms", "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "limit_cycle.json" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "transforms.json").exists()


@pytest.mark.parametrize("name, keys", [
    ("transforms.json", ["oscillators", 0, "lambda_slope"]),
    ("network_vf.json", ["diagnostics"]),
    ("reduced_coupling.json", ["fallback"]),
    (os.path.join("trials", "manifest.json"), ["files"]),
    ("network_vf.json", ["coupling", "1:0:theta"]),
    ("reduced_coupling.json", ["series", "0:1:phi"]),
    ("reduced_coupling.json", ["series", "0:1:sigma"]),
])
def test_compare_rejects_artifact_without_a_key(pipeline_runs, tmp_path, capsys,
                                                name, keys):
    """Every artifact compare reads needs every key its writer writes, every
    series of a series table included: a missing one exits 2 with one stderr
    line naming the file, and no report.json is written."""
    run = pipeline_runs["radial_isochron_clock"]
    os.makedirs(tmp_path / "trials")
    for copy in ("config.json", "limit_cycle.json", "transforms.json",
                 "network_vf.json", "reduced_coupling.json",
                 os.path.join("trials", "manifest.json"),
                 os.path.join("trials", "trial_0000.npy")):
        shutil.copyfile(os.path.join(run.out_dir, copy), tmp_path / copy)
    doc = json.loads((tmp_path / name).read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    (tmp_path / name).write_text(json.dumps(doc))
    assert cli.main(["compare", "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "report.json").exists()


def _copy_run(run, tmp_path, names):
    os.makedirs(tmp_path / "trials")
    for name in names:
        shutil.copyfile(os.path.join(run.out_dir, name), tmp_path / name)


_ARTIFACTS = ("config.json", "limit_cycle.json", "transforms.json", "network_vf.json",
              os.path.join("trials", "manifest.json"), os.path.join("trials", "trial_0000.npy"))


def _keep_oscillator_0(name: str, doc: dict):
    """Cut a two-oscillator artifact down to its oscillator 0."""
    if "n_oscillators" in doc:
        doc["n_oscillators"] = 1
        for part in ("uncoupled", "coupling", "series"):
            if part in doc:
                doc[part] = {k: v for k, v in doc[part].items() if "1" not in k.split(":")}
    else:
        doc["oscillators"] = doc["oscillators"][:1]


@pytest.mark.parametrize("command, output, name", [
    (command, output, name)
    for command, output in (("reduce-coupling", "reduced_coupling.json"),
                            ("compare", "report.json"))
    for name in ("limit_cycle.json", "transforms.json", "network_vf.json")
] + [("compare", "report.json", "reduced_coupling.json")])
def test_oscillator_count_must_match_the_model(pipeline_runs, tmp_path, capsys,
                                               command, output, name):
    """An artifact cut to one oscillator of a two-oscillator model exits 2
    with one stderr line naming the file, and the stage writes nothing."""
    run = pipeline_runs["canonical"]
    _copy_run(run, tmp_path, _ARTIFACTS + (("reduced_coupling.json",)
                                           if command == "compare" else ()))
    doc = json.loads((tmp_path / name).read_text())
    _keep_oscillator_0(name, doc)
    (tmp_path / name).write_text(json.dumps(doc))
    assert cli.main([command, "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err and "oscillators" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("name, part, key, value", [
    pytest.param("limit_cycle.json", "cycle", "lam", None, id="None"),
    pytest.param("limit_cycle.json", "cycle", "lam", "-0.5", id="-0.5"),
    pytest.param("limit_cycle.json", "cycle", "lam", True, id="True"),
    pytest.param("limit_cycle.json", "cycle", "lam", [], id="lam3"),
    pytest.param("limit_cycle.json", "cycle", "period", 0, id="period-zero"),
    pytest.param("limit_cycle.json", "cycle", "period", "x", id="period-string"),
    pytest.param("limit_cycle.json", "cycle", "period", -6.283, id="period-negative"),
    pytest.param("limit_cycle.json", "cycle", "omega", float("inf"), id="omega-inf"),
    pytest.param("limit_cycle.json", "cycle", "omega", False, id="omega-bool"),
    pytest.param("limit_cycle.json", "cycle", "gamma_resid", None, id="gamma_resid-null"),
    pytest.param("limit_cycle.json", "cycle", "gamma_resid", float("nan"), id="gamma_resid-nan"),
    pytest.param("limit_cycle.json", "cycle", "gamma_resid", -1e-9, id="gamma_resid-negative"),
    pytest.param("limit_cycle.json", "cycle", "anchor", [0.0, "x"], id="anchor-string"),
    pytest.param("limit_cycle.json", "cycle", "anchor", [0.0, None], id="anchor-null"),
    pytest.param("limit_cycle.json", "cycle", "anchor", [0.0, float("nan")], id="anchor-nan"),
    pytest.param("limit_cycle.json", "cycle", "anchor", [0.0, -1.0], id="anchor-negative"),
    pytest.param("limit_cycle.json", "cycle", "anchor", [0.0], id="anchor-one"),
    pytest.param("limit_cycle.json", "cycle", "monodromy", "abc", id="monodromy-string"),
    pytest.param("limit_cycle.json", "cycle", "monodromy", [[1.0, 2.0]], id="monodromy-one-row"),
    pytest.param("limit_cycle.json", "cycle", "monodromy", [[1.0, float("nan")], [0.0, 1.0]],
                 id="monodromy-nan"),
    pytest.param("limit_cycle.json", "frame", "orientation", "x", id="orientation-string"),
    pytest.param("limit_cycle.json", "frame", "orientation", None, id="orientation-null"),
    pytest.param("limit_cycle.json", "frame", "orientation", 0.0, id="orientation-zero"),
    pytest.param("limit_cycle.json", "frame", "orientation", True, id="orientation-bool"),
    pytest.param("limit_cycle.json", "frame", "center", [0.0, float("inf")], id="center-inf"),
    pytest.param("limit_cycle.json", "frame", "center", "xy", id="center-string"),
    pytest.param("transforms.json", "transforms", "sigma_domain", [0.1], id="sigma_domain-one"),
    pytest.param("transforms.json", None, "lambda_slope", "nan", id="lambda_slope-string"),
    pytest.param("transforms.json", None, "lambda_slope", float("nan"), id="lambda_slope-nan"),
    pytest.param("transforms.json", "transforms", "r_domain", [1.2, 0.8],
                 id="r_domain-reversed"),
    pytest.param("transforms.json", "transforms", "sigma_domain", [-0.1, None],
                 id="sigma_domain-null"),
])
def test_cycle_without_a_finite_lam_is_usage_error(pipeline_runs, tmp_path, capsys,
                                                   name, part, key, value):
    """A cycle's period and omega must be finite positive numbers, its lam a
    finite number, its gamma_resid a finite number >= 0, its anchor two
    finite numbers with a positive radius and its monodromy null or 2x2
    finite numbers; a frame's center must be two
    finite numbers and its orientation 1 or -1; each transform domain must be
    two finite numbers lo <= hi, and each lambda_slope a finite number.
    Otherwise reduce-coupling exits 2 with one stderr line naming the file
    and the key, and writes no reduced_coupling.json."""
    _copy_run(pipeline_runs["canonical"], tmp_path, _ARTIFACTS)
    doc = json.loads((tmp_path / name).read_text())
    entry = doc["oscillators"][0]
    (entry[part] if part else entry)[key] = value
    (tmp_path / name).write_text(json.dumps(doc))
    assert cli.main(["reduce-coupling", "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err and key in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "reduced_coupling.json").exists()


@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_cycle_that_does_not_contract_is_usage_error(pipeline_runs, tmp_path, capsys, lam):
    """A limit_cycle.json cycle whose lam is not negative makes the transforms
    stage exit 2 with one stderr line naming the file and lam, and write
    nothing: the averaging needs a contracting cycle."""
    _copy_run(pipeline_runs["canonical"], tmp_path, ("config.json", "limit_cycle.json"))
    doc = json.loads((tmp_path / "limit_cycle.json").read_text())
    doc["oscillators"][1]["cycle"]["lam"] = lam
    (tmp_path / "limit_cycle.json").write_text(json.dumps(doc))
    assert cli.main(["transforms", "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / "limit_cycle.json") in err and "lam" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "transforms.json").exists()


@pytest.mark.parametrize("key, value", [
    pytest.param("omega", [1.0], id="omega-one"),
    pytest.param("omega", [1.0, "x"], id="omega-string"),
    pytest.param("omega", 1.0, id="omega-scalar"),
    pytest.param("lam", [-2.0, float("nan")], id="lam-nan"),
    pytest.param("lam", None, id="lam-null"),
    pytest.param("lam", [-2.0, -4.0, -1.0], id="lam-three"),
])
def test_compare_rejects_reduced_rates_not_per_oscillator(pipeline_runs, tmp_path, capsys,
                                                          key, value):
    """The omega and lam of reduced_coupling.json must each be one finite
    number per oscillator; otherwise compare exits 2 with one stderr line
    naming the file and the key, and writes no report.json."""
    _copy_run(pipeline_runs["canonical"], tmp_path, _ARTIFACTS + ("reduced_coupling.json",))
    path = tmp_path / "reduced_coupling.json"
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    assert cli.main(["compare", "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and key in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "report.json").exists()


_MANIFEST = os.path.join("trials", "manifest.json")
_PAIR_SPEC = {"type": "pair", "m_max": 1, "ki_max": 1, "kj_max": 1, "mode": "observable"}


@pytest.mark.parametrize("command, name, key, value", [
    pytest.param("compare", "reduced_coupling.json", "fallback", "abc", id="fallback-string"),
    pytest.param("compare", "reduced_coupling.json", "fallback", [1, 2, 3], id="fallback-ints"),
    pytest.param("compare", "reduced_coupling.json", "fallback", [False], id="fallback-one"),
    pytest.param("compare", "reduced_coupling.json", "fallback", [0, 1], id="fallback-0-1"),
    pytest.param("compare", "reduced_coupling.json", "diagnostics", 5, id="rc-diagnostics"),
    pytest.param("compare", "network_vf.json", "diagnostics", 5, id="vf-diagnostics"),
    pytest.param("compare", "network_vf.json", "diagnostics", [], id="vf-diagnostics-list"),
    pytest.param("reconstruct-vf", _MANIFEST, "step", "x", id="step-string"),
    pytest.param("reconstruct-vf", _MANIFEST, "step", 0.0, id="step-zero"),
    pytest.param("reconstruct-vf", _MANIFEST, "step", float("nan"), id="step-nan"),
    pytest.param("reconstruct-vf", _MANIFEST, "metadata", 7, id="metadata-number"),
    pytest.param("compare", _MANIFEST, "metadata", None, id="metadata-null"),
] + [
    pytest.param("compare", name, (table, series, "coefficients"), value, id=f"{name}-{case}")
    for name, table, series in (("reduced_coupling.json", "series", "1:0:phi"),
                                ("network_vf.json", "coupling", "1:0:theta"))
    for case, value in (("nested", lambda c: [[x] for x in c]),
                        ("nan", lambda c: c[:-1] + [float("nan")]))
] + [
    # Each fitted series' spec must be of the kind its table needs: a wrong
    # spec of the right size would otherwise be scored, or fail later on.
    pytest.param(command, name, (*path, "spec"), value, id=f"{name}-{case}")
    for command, name, path, case, value in (
        ("compare", "reduced_coupling.json", ("series", "1:0:phi"), "observable-spec",
         lambda s: dict(s, mode="observable", kj_max=3)),
        ("compare", "network_vf.json", ("coupling", "1:0:theta"), "reduced-spec",
         lambda s: dict(s, mode="reduced", m_max=1, kj_max=5)),
        ("compare", "network_vf.json", ("uncoupled", "1:theta"), "pair-spec", _PAIR_SPEC),
        ("reduce-coupling", "transforms.json", ("oscillators", 0, "transforms", "inverse_phase"),
         "pair-spec", _PAIR_SPEC),
        ("simulate", "limit_cycle.json", ("oscillators", 0, "cycle", "gamma"), "pair-spec",
         _PAIR_SPEC),
        ("simulate", "limit_cycle.json", ("oscillators", 0, "cycle", "gamma"), "radial-spec",
         {"type": "single", "n_max": 16, "k_max": 0}))
])
def test_artifact_value_of_the_wrong_type_is_usage_error(pipeline_runs, tmp_path, capsys,
                                                         command, name, key, value):
    """reduced_coupling.json's fallback must be one bool per oscillator, the
    diagnostics of reduced_coupling.json and network_vf.json JSON objects,
    each fitted series' coefficients one flat list of finite numbers, and
    the trials manifest's step a finite positive number and its metadata
    an object.  The spec of gamma must be single with n_max 0, those of the
    transforms and the uncoupled field single, those of the field's coupling
    observable-mode pair specs and those of reduced_coupling.json reduced-mode
    ones.  Otherwise the stage exits 2 with one stderr line naming the
    file and the key, and writes nothing.  A ``key`` tuple is the path to
    the key, and a callable ``value`` maps the key's old value to the new."""
    output = {"compare": "report.json", "reconstruct-vf": "network_vf.json",
              "reduce-coupling": "reduced_coupling.json", "simulate": _MANIFEST}[command]
    _copy_run(pipeline_runs["canonical"], tmp_path, {
        "compare": _ARTIFACTS + ("reduced_coupling.json",),
        "reconstruct-vf": ("config.json", _MANIFEST, os.path.join("trials", "trial_0000.npy")),
        "reduce-coupling": _ARTIFACTS,
        "simulate": ("config.json", "limit_cycle.json")}[command])
    path = tmp_path / name
    doc = json.loads(path.read_text())
    *parents, key = key if isinstance(key, tuple) else (key,)
    entry = doc
    for parent in parents:
        entry = entry[parent]
    entry[key] = value(entry[key]) if callable(value) else value
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(path) in err and key in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("step", [0.123, "off_by_1e-7"])
@pytest.mark.parametrize("command, output", [("reconstruct-vf", "network_vf.json"),
                                             ("compare", "report.json")])
def test_manifest_step_must_match_the_trials(pipeline_runs, tmp_path, capsys,
                                             command, output, step):
    """A trials manifest whose step differs from its trial's time step by
    more than rtol 1e-9 (0.123 against about 0.00105, or 1e-7 relative)
    exits 2 with one line naming the manifest and the trial file, and the
    stage writes nothing."""
    _copy_run(pipeline_runs["canonical"], tmp_path,
              _ARTIFACTS + ("reduced_coupling.json",) if command == "compare"
              else ("config.json", _MANIFEST, os.path.join("trials", "trial_0000.npy")))
    manifest = tmp_path / _MANIFEST
    doc = json.loads(manifest.read_text())
    doc["files"] = ["trial_0000.npy"]
    doc["step"] = step if isinstance(step, float) else doc["step"] * (1.0 + 1e-7)
    manifest.write_text(json.dumps(doc))
    assert cli.main([command, "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(manifest) in err and str(tmp_path / "trials" / "trial_0000.npy") in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / output).exists()


def _trial(n_osc: int, rows: int = 200):
    from pharec.vf_reconstruction import Trial
    t = np.arange(rows) * 0.05
    theta = np.mod(np.outer(t, 1.0 + 0.3 * np.arange(n_osc)), 2 * np.pi)
    return Trial(t, theta, np.ones_like(theta))


@pytest.mark.parametrize("case", ["one_oscillator_file", "one_oscillator_trials",
                                  "four_rows"])
@pytest.mark.parametrize("command, output", [("reconstruct-vf", "network_vf.json"),
                                             ("compare", "report.json")])
def test_trial_files_must_match_the_model(pipeline_runs, tmp_path, capsys,
                                          command, output, case):
    """A trial file holding one oscillator of a two-oscillator model (among
    two-oscillator files, or in every file), or only 4 rows, exits 2 with
    one stderr line naming that file, and the stage writes nothing."""
    from pharec import serialize
    _copy_run(pipeline_runs["canonical"], tmp_path,
              ("config.json",) if command == "reconstruct-vf"
              else _ARTIFACTS + ("reduced_coupling.json",))
    trials = {"one_oscillator_file": [_trial(1), _trial(2)],
              "one_oscillator_trials": [_trial(1), _trial(1)],
              "four_rows": [_trial(2, rows=4), _trial(2)]}[case]
    serialize.write_trial_set(str(tmp_path / "trials"), trials, 0.05, {})
    assert cli.main([command, "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / "trials" / "trial_0000.npy") in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / output).exists()


def _bad_npy(case: str, path: str):
    """Overwrite the .npy trial at ``path`` with a file that is no trial."""
    good = open(path, "rb").read()
    rows = np.load(path, allow_pickle=False)
    if case in ("truncated", "empty"):
        open(path, "wb").write(good[:-8] if case == "truncated" else b"")
        return
    if case == "pickled":
        open(path, "wb").write(pickle.dumps(rows))
        return
    if case == "npz":
        with open(path, "wb") as fh:
            np.savez(fh, rows=rows)
        return
    if case in ("nan", "inf"):
        rows[150, 2] = np.nan if case == "nan" else -np.inf
    bad = {"object": np.array([{"t": 0.0}] * 5, dtype=object),
           "float32": rows.astype(np.float32), "one_dimensional": rows[:, 0],
           "three_dimensional": rows[None], "four_rows": rows[:4]}.get(case, rows)
    with open(path, "wb") as fh:
        np.save(fh, bad, allow_pickle=case == "object")


@pytest.mark.parametrize("case", ["truncated", "empty", "object", "pickled", "npz",
                                  "float32", "one_dimensional", "three_dimensional",
                                  "nan", "inf", "four_rows"])
@pytest.mark.parametrize("command, output", [("reconstruct-vf", "network_vf.json"),
                                             ("compare", "report.json")])
def test_npy_trial_input_checks(pipeline_runs, tmp_path, capsys, command, output, case):
    """A .npy trial that is truncated, holds object, pickled or zipped data,
    a dtype other than float64, an array that is not 2-d, a nan or inf, or
    fewer than 5 rows exits 2 with one stderr line naming that file, and the
    stage writes nothing."""
    from pharec import serialize
    _copy_run(pipeline_runs["canonical"], tmp_path,
              ("config.json",) if command == "reconstruct-vf"
              else _ARTIFACTS + ("reduced_coupling.json",))
    serialize.write_trial_set(str(tmp_path / "trials"), [_trial(2), _trial(2)], 0.05, {})
    path = str(tmp_path / "trials" / "trial_0000.npy")
    _bad_npy(case, path)
    assert cli.main([command, "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert path in err and len(err.splitlines()) == 1
    assert not (tmp_path / output).exists()


def test_csv_trials_give_the_npy_runs_bytes(pipeline_runs, tmp_path):
    """A run's trials exported as CSV by tools/trials_to_csv.py give
    reconstruct-vf, reduce-coupling and compare the bytes of network_vf.json,
    reduced_coupling.json and report.json that the run's .npy trials gave."""
    run = pipeline_runs["radial_isochron_clock"]
    tool = os.path.join(ROOT, "tools", "trials_to_csv.py")
    for name in ("config.json", "limit_cycle.json", "transforms.json"):
        shutil.copyfile(os.path.join(run.out_dir, name), tmp_path / name)
    proc = subprocess.run([sys.executable, tool, run.out_dir, str(tmp_path / "trials")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == ""
    manifest = json.loads((tmp_path / "trials" / "manifest.json").read_text())
    original = json.loads(open(os.path.join(run.out_dir, "trials", "manifest.json")).read())
    assert manifest["files"] == [f"trial_{k:04d}.csv" for k in range(run.config.n_trials)]
    assert (manifest["step"], manifest["metadata"]) == (original["step"],
                                                        original["metadata"])
    first = (tmp_path / "trials" / "trial_0000.csv").read_text().splitlines()[0]
    assert first == "t,theta_1,r_1,theta_2,r_2"
    for command in ("reconstruct-vf", "reduce-coupling", "compare"):
        assert cli.main([command, "--from", str(tmp_path)]) == cli.EXIT_PASS
    for name in ("network_vf.json", "reduced_coupling.json", "report.json"):
        with open(os.path.join(run.out_dir, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
    # A run without a trial set, or an existing OUT_DIR, is an input error
    # of one stderr line, and nothing is written.
    for run_dir, out, named in ((tmp_path / "none", tmp_path / "out", "manifest.json"),
                                (run.out_dir, tmp_path / "trials", "exists")):
        before = sorted(os.listdir(tmp_path / "trials"))
        proc = subprocess.run([sys.executable, tool, str(run_dir), str(out)],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 2 and len(proc.stderr.splitlines()) == 1
        assert named in proc.stderr and not (tmp_path / "out").exists()
        assert sorted(os.listdir(tmp_path / "trials")) == before


def test_simulate_reruns_write_identical_npy_files(pipeline_runs, tmp_path):
    """Two simulate runs write byte-identical manifests and .npy trials, each
    one C-contiguous float64 (n, 5) array."""
    from pharec import serialize
    run = pipeline_runs["canonical"]
    doc = serialize.read_json(os.path.join(run.out_dir, "config.json"), "config")
    doc.pop("schema")
    doc["n_trials"] = 3
    written = []
    for side in ("a", "b"):
        out = tmp_path / side
        os.makedirs(out)
        shutil.copyfile(os.path.join(run.out_dir, "limit_cycle.json"),
                        out / "limit_cycle.json")
        serialize.write_json(str(out / "config.json"), doc, "config")
        assert cli.main(["simulate", "--from", str(out)]) == cli.EXIT_PASS
        written.append({p.name: p.read_bytes() for p in (out / "trials").iterdir()})
    assert written[0] == written[1]
    assert sorted(written[0]) == ["manifest.json", "trial_0000.npy", "trial_0001.npy",
                                  "trial_0002.npy"]
    rows = np.load(tmp_path / "a" / "trials" / "trial_0001.npy", allow_pickle=False)
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    assert rows.ndim == 2 and rows.shape[1] == 5


def test_stage_override_recorded_in_config(pipeline_runs, tmp_path):
    """A --seed override on a single stage lands in config.json and in the
    trials manifest, whose step is the shortest cycle period over
    STEPS_PER_PERIOD."""
    from pharec import pipeline, serialize
    from pharec.limit_cycle import STEPS_PER_PERIOD
    run = pipeline_runs["radial_isochron_clock"]
    doc = serialize.read_json(os.path.join(run.out_dir, "config.json"), "config")
    doc.pop("schema")
    doc.update(n_trials=1, out_dir=str(tmp_path))
    serialize.write_json(str(tmp_path / "config.json"), doc, "config")
    shutil.copyfile(os.path.join(run.out_dir, "limit_cycle.json"),
                    tmp_path / "limit_cycle.json")
    assert cli.main(["simulate", "--from", str(tmp_path), "--seed", "7"]) \
        == cli.EXIT_PASS
    assert serialize.read_json(str(tmp_path / "config.json"), "config")["seed"] == 7
    manifest = serialize.read_json(str(tmp_path / "trials" / "manifest.json"),
                                   "trials")
    assert manifest["metadata"] == {"kind": "radial_isochron_clock", "n_trials": 1,
                                    "periods": pipeline.TRIAL_PERIODS, "seed": 7}
    _, cycles = pipeline._load(run.config, "limit_cycle")
    assert manifest["step"] == min(c.period for c in cycles) / STEPS_PER_PERIOD


def test_overflowing_trial_duration_is_numerical_error(pipeline_runs, tmp_path, capsys):
    """A cycle period so long that the trials' step count overflows makes
    simulate exit 3 with one stderr line, and write no trials."""
    _copy_run(pipeline_runs["canonical"], tmp_path, ("config.json", "limit_cycle.json"))
    doc = json.loads((tmp_path / "limit_cycle.json").read_text())
    doc["oscillators"][0]["cycle"]["period"] = 1e308
    (tmp_path / "limit_cycle.json").write_text(json.dumps(doc))
    assert cli.main(["simulate", "--from", str(tmp_path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "InvalidStep" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "trials" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["pipeline", "limit-cycle"])
def test_output_directory_that_cannot_be_made_is_usage_error(tmp_path, capsys, command):
    """An --out below a regular file exits 2 with one stderr line naming the
    directory, and writes nothing."""
    from pharec import pipeline, serialize
    config = str(tmp_path / "config.json")
    serialize.write_json(config, pipeline.default_config("canonical", "x").to_dict(), "config")
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "sub")
    assert cli.main([command, "--config", config, "--out", out]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert out in err and len(err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["config.json", "file"]
    assert (tmp_path / "file").read_text() == ""


def test_heatmaps_directory_that_cannot_be_made_is_usage_error(pipeline_runs, tmp_path,
                                                              capsys):
    """A regular file named heatmaps makes reduce-coupling exit 2 with one
    stderr line naming it, before reduced_coupling.json is written."""
    _copy_run(pipeline_runs["canonical"], tmp_path, _ARTIFACTS)
    (tmp_path / "heatmaps").write_text("")
    assert cli.main(["reduce-coupling", "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / "heatmaps") in err and len(err.splitlines()) == 1
    assert not (tmp_path / "reduced_coupling.json").exists()


@pytest.mark.parametrize("command, names, output", [
    ("simulate", ("config.json",), os.path.join("trials", "manifest.json")),
    ("compare", _ARTIFACTS + ("reduced_coupling.json",), "report.json"),
], ids=["simulate", "compare"])
def test_limit_cycle_of_another_kind_is_usage_error(pipeline_runs, tmp_path, capsys,
                                                    command, names, output):
    """A canonical run's limit_cycle.json in a radial isochron clock run
    exits 2 with one stderr line naming the file and both kinds, and the
    stage writes nothing."""
    _copy_run(pipeline_runs["radial_isochron_clock"], tmp_path, names)
    shutil.copyfile(os.path.join(pipeline_runs["canonical"].out_dir, "limit_cycle.json"),
                    tmp_path / "limit_cycle.json")
    assert cli.main([command, "--from", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / "limit_cycle.json") in err and len(err.splitlines()) == 1
    assert "'canonical'" in err and "'radial_isochron_clock'" in err
    assert not (tmp_path / output).exists()


def test_stage_out_must_match_from(tmp_path, capsys):
    """A stage command rejects --out NEW with --from DIR before writing."""
    from pharec import pipeline, serialize
    src, new = tmp_path / "src", tmp_path / "new"
    src.mkdir()
    doc = pipeline.default_config("canonical", str(src)).to_dict()
    serialize.write_json(str(src / "config.json"), doc, "config")
    assert cli.main(["simulate", "--from", str(src), "--out", str(new)]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--out" in err and "--from" in err
    assert not (new / "config.json").exists()


def test_compare_exit_codes(pipeline_runs, tmp_path, monkeypatch):
    from pharec import pipeline, serialize
    run = pipeline_runs["radial_isochron_clock"]
    assert cli.main(["compare", "--from", run.out_dir]) == cli.EXIT_PASS
    # Impossible tolerance forces a failing report and exit code 1.
    monkeypatch.setitem(pipeline.TOLERANCES, "composition_abs", 0.0)
    doc = serialize.read_json(os.path.join(run.out_dir, "config.json"), "config")
    strict_dir = str(tmp_path / "strict")
    os.makedirs(strict_dir)
    for name in ("limit_cycle.json", "transforms.json", "network_vf.json",
                 "reduced_coupling.json"):
        src = os.path.join(run.out_dir, name)
        dst = os.path.join(strict_dir, name)
        with open(src, "rb") as fs, open(dst, "wb") as fd:
            fd.write(fs.read())
    os.symlink(os.path.join(run.out_dir, "trials"),
               os.path.join(strict_dir, "trials"))
    doc["out_dir"] = strict_dir
    doc.pop("schema")
    serialize.write_json(os.path.join(strict_dir, "config.json"), doc, "config")
    assert cli.main(["compare", "--from", strict_dir]) == cli.EXIT_TOLERANCE
    report = json.load(open(os.path.join(strict_dir, "report.json")))
    assert report["pass"] is False
    for row in report["rows"]:
        assert set(row) >= {"name", "value", "bound", "pass"}
