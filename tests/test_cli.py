import json
import os
import shutil

import numpy as np
import pytest

from pharec import cli


def test_missing_config_is_usage_error(capsys):
    assert cli.main(["pipeline"]) == cli.EXIT_USAGE
    assert "config" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["pipeline", "--config", str(bad)]) == cli.EXIT_USAGE


def test_invalid_config_value_is_usage_error(tmp_path):
    from pharec import pipeline, serialize
    doc = pipeline.default_config("canonical", str(tmp_path)).to_dict()
    path = str(tmp_path / "cfg.json")
    for key, value in (("n_trials", 0), ("pair_orders", [3, 2, 0])):
        serialize.write_json(path, dict(doc, **{key: value}), "config")
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_USAGE


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


def test_stage_rerun_is_bitwise_stable(pipeline_runs):
    """Re-running one stage from the artifact directory reproduces its
    output byte for byte."""
    run = pipeline_runs["radial_isochron_clock"]
    path = os.path.join(run.out_dir, "transforms.json")
    before = open(path, "rb").read()
    assert cli.main(["transforms", "--from", run.out_dir]) == cli.EXIT_PASS
    assert open(path, "rb").read() == before


def test_stage_override_recorded_in_config(pipeline_runs, tmp_path):
    """A --seed override on a single stage lands in config.json."""
    from pharec import serialize
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
    assert manifest["metadata"]["seed"] == 7


def test_compare_exit_codes(pipeline_runs, tmp_path):
    from pharec import serialize
    run = pipeline_runs["radial_isochron_clock"]
    assert cli.main(["compare", "--from", run.out_dir]) == cli.EXIT_PASS
    # Impossible tolerance forces a failing report and exit code 1.
    doc = serialize.read_json(os.path.join(run.out_dir, "config.json"), "config")
    doc["tolerances"] = dict(doc["tolerances"], composition_abs=0.0)
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
