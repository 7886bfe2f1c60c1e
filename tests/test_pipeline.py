import dataclasses
import itertools
import json
import os
import shutil
import weakref

import numpy as np
import pytest

from conftest import MODEL_KINDS
from pharec import pipeline, serialize, vf_reconstruction
from pharec.basis import SingleBasisSpec
from pharec.errors import InvalidConfig

# Old config keys whose values are now the per-kind table or constants, each
# with one valid and one invalid value of the field it was.
REMOVED_FIELDS = (("trial_periods", 6.0), ("trial_periods", -1.0),
                  ("radial_span", [0.75, 1.35]), ("radial_span", [1.4, 0.7]),
                  ("ic_angles", 21), ("ic_angles", 0), ("ic_radii", 15), ("ic_radii", 0),
                  ("single_orders", [4, 5]), ("single_orders", [-1, 5]),
                  ("transform_orders", [4, 5]), ("transform_orders", [4]),
                  ("pair_orders", [3, 2, 2]), ("pair_orders", [3, 2, 0]),
                  ("reduced_orders", [2, 2, 2]), ("reduced_orders", [2, -1, 2]),
                  ("grid_points", 4000), ("grid_points", 3),
                  ("row_budget", 60000), ("row_budget", 0))


def test_default_configs_valid():
    for kind in ("radial_isochron_clock", "canonical", "van_der_pol",
                 "wilson_cowan"):
        config = pipeline.default_config(kind, "/tmp/x")
        assert config.model["kind"] == kind
        settings = pipeline.KIND_SETTINGS[kind]
        assert settings["single"].size > 0
        assert settings["transform"].size >= settings["single"].size
        assert settings["n_gamma"] in (8, 32)


def test_config_round_trip():
    config = pipeline.default_config("van_der_pol", "/tmp/x", seed=7)
    again = pipeline.PipelineConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    assert sorted(again.to_dict()) == ["model", "n_trials", "out_dir", "seed"]
    assert pipeline.KIND_SETTINGS[again.model["kind"]]["transform"] == SingleBasisSpec(7, 12)


def test_invalid_values_rejected():
    base = pipeline.default_config("canonical", "/tmp/x").to_dict()
    for key, value in (("n_trials", 0), ("n_trials", 2.5), ("seed", -1), ("seed", 1.5),
                       ("n_trials", True)):
        bad = dict(base)
        bad[key] = value
        with pytest.raises(InvalidConfig):
            pipeline.PipelineConfig.from_dict(bad)
    two = [[0.0, 0.0], [0.3, 0.0]]
    for model in ({"kind": "nope", "params": {"a": [1.0]}, "coupling": [[0.0]]},
                  {"kind": "van_der_pol", "params": {"nu": [0.3, 0.5]},
                   "coupling": two},
                  {"kind": "canonical", "params": {"a": [1.2, 1.0], "alpha": [1.5]},
                   "coupling": two},
                  {"kind": "van_der_pol", "params": {"mu": [None, 0.5]},
                   "coupling": two},
                  dict(base["model"], coupling=[[0.0, float("nan")], [0.3, 0.0]]),
                  dict(base["model"], coupling=[[0.0, 0.0], [float("inf"), 0.0]]),
                  dict(base["model"], extra=1)):
        with pytest.raises(InvalidConfig):
            pipeline.PipelineConfig.from_dict(dict(base, model=model))
    with pytest.raises(InvalidConfig):
        pipeline.PipelineConfig.from_dict(dict(base, unknown_key=1))


def test_removed_knobs_rejected():
    """The harmonic count, basis orders, initial-condition grid and radial
    span follow the model kind, the trial duration, coupling orders, grid
    size and row budget are constants, the reduction grid's seed is seed + 1
    and the report bounds are the constant table; a config that still sets
    one of the removed keys, to any value, is rejected by name, and one
    holding several names them all in one error."""
    base = pipeline.default_config("canonical", "/tmp/x").to_dict()
    for key, value in (("grid_seed", None), ("grid_seed", 5), ("grid_seed", -3),
                       ("gamma_harmonics", None), ("gamma_harmonics", 8),
                       ("gamma_harmonics", 0), ("gamma_harmonics", -1),
                       ("tolerances", dict(pipeline.TOLERANCES)), ("tolerances", {}),
                       ("tolerances", None), ("transform_orders", None),
                       *REMOVED_FIELDS):
        with pytest.raises(InvalidConfig, match=key):
            pipeline.PipelineConfig.from_dict(dict(base, **{key: value}))
    old = dict(base, **dict(REMOVED_FIELDS[::2]))
    with pytest.raises(InvalidConfig) as info:
        pipeline.PipelineConfig.from_dict(old)
    assert all(key in str(info.value) for key, _ in REMOVED_FIELDS)


def test_pairs_follow_the_coupling_matrix():
    """Driven pairs and silent directions come in the order of the nested
    loops over (i, j) they replace, for every zero pattern of a 3 x 3
    coupling matrix with zero diagonal."""
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    for pattern in itertools.product((0.0, 0.4), repeat=len(off)):
        eps = np.zeros((3, 3))
        for (i, j), value in zip(off, pattern):
            eps[i, j] = value
        driven = [[i, j] for i in range(3) for j in range(3)
                  if i != j and eps[i, j] != 0]
        silent = [[i, j] for i in range(3) for j in range(3)
                  if i != j and eps[i, j] == 0 and eps[j, i] != 0]
        assert pipeline._pairs(eps) == (driven, silent)


def test_tolerance_table_present():
    for key in ("lambda_monodromy_rel", "pde_phi_rel", "composition_abs",
                "directionality_ratio", "reduced_table_rel"):
        assert key in pipeline.TOLERANCES


def test_report_rows_record_their_headroom(pipeline_runs):
    """Every row with a value records its headroom, value/bound or, for the
    factorization floors, bound/value, and a passing row's is at most 1; a
    row without an oracle records none."""
    for kind in MODEL_KINDS:
        with open(os.path.join(pipeline_runs[kind].out_dir, "report.json")) as fh:
            rows = json.load(fh)["rows"]
        for row in rows:
            value, bound = row["value"], row["bound"]
            if value is None:
                assert row["headroom"] is None
                continue
            floor = row["name"].startswith("factorization_")
            assert row["headroom"] == (bound / value if floor else value / bound), row
            assert row["headroom"] <= 1 or not row["pass"], row


@pytest.mark.parametrize("name", ["network_vf", "reduced_coupling"])
def test_loaded_artifact_writes_back_the_same_bytes(pipeline_runs, tmp_path, name):
    """An artifact decoded by pipeline._load and written back by
    serialize.write_json gives the bytes of the file, for every model: the
    series tables' "i:name" and "i:j:name" keys survive the round trip."""
    for kind in MODEL_KINDS:
        run = pipeline_runs[kind]
        path = tmp_path / f"{kind}.json"
        serialize.write_json(str(path), pipeline._load(run.config, name).to_dict(), name)
        with open(os.path.join(run.out_dir, f"{name}.json"), "rb") as fh:
            assert path.read_bytes() == fh.read(), kind


def test_stage_vf_frees_the_trials_before_the_fit(pipeline_runs, tmp_path, monkeypatch):
    """No array read from a trial file is alive when the design fit starts:
    the fit keeps a fraction of the rows, so the trials would only add to
    the design's memory."""
    run = pipeline_runs["canonical"]
    shutil.copytree(os.path.join(run.out_dir, "trials"), tmp_path / "trials")
    config = dataclasses.replace(run.config, out_dir=str(tmp_path))
    read, fit = serialize.read_trial_csv, vf_reconstruction.fit_network_vf
    backing, alive = [], []

    def read_trial_csv(*args, **kwargs):
        trial = read(*args, **kwargs)
        backing.append(weakref.ref(trial.theta.base))
        return trial

    def fit_network_vf(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in backing))
        return fit(*args, **kwargs)

    monkeypatch.setattr(serialize, "read_trial_csv", read_trial_csv)
    monkeypatch.setattr(vf_reconstruction, "fit_network_vf", fit_network_vf)
    pipeline.stage_vf(config)
    assert len(backing) == config.n_trials and alive == [0]


def test_one_oscillator_network_runs_end_to_end(tmp_path):
    """A lone canonical oscillator (coupling [[0.0]], 20 trials, seed 42)
    passes all 10 report rows of one oscillator; it has no pair, so its
    reduced series table and heatmaps manifest are empty, and both fitted
    tables decode through pipeline._load and write back to the same bytes."""
    model = {"kind": "canonical", "params": {"a": [1.2], "alpha": [1.5]},
             "coupling": [[0.0]]}
    config = pipeline.PipelineConfig(model=model, out_dir=str(tmp_path / "run"),
                                     seed=42, n_trials=20)
    report = pipeline.run_pipeline(config)
    assert report["pass"] and len(report["rows"]) == 10
    assert pipeline._load(config, "reduced_coupling").series == {}
    manifest = serialize.read_json(str(tmp_path / "run" / "heatmaps" / "manifest.json"),
                                   "heatmaps")
    assert manifest["panels"] == []
    for name in ("network_vf", "reduced_coupling"):
        path = tmp_path / f"{name}.json"
        serialize.write_json(str(path), pipeline._load(config, name).to_dict(), name)
        assert path.read_bytes() == (tmp_path / "run" / f"{name}.json").read_bytes()
