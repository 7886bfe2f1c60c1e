"""Artifact and trial file formats.

JSON artifacts carry a versioned "schema" field and are written with sorted
keys so identical inputs produce byte-identical files.  Trial CSVs store
full double precision (17 significant digits) so stage re-runs are
bit-stable.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import IoError
from .vf_reconstruction import Trial, TrialSet

__all__ = [
    "write_json",
    "read_json",
    "decode_json",
    "write_rows",
    "read_rows",
    "write_trial_csv",
    "read_trial_csv",
    "write_trial_set",
    "read_trial_set",
    "write_heatmap_csv",
]

SCHEMA_VERSION = 1


def write_json(path: str, payload: dict, schema: str):
    doc = dict(payload)
    doc["schema"] = f"{schema}/v{SCHEMA_VERSION}"
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_json(path: str, schema: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise IoError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    expected = f"{schema}/v{SCHEMA_VERSION}"
    if doc.get("schema") != expected:
        raise IoError(f"{path}: expected schema {expected}, got {doc.get('schema')}")
    return doc


def decode_json(path: str, schema: str, decode):
    """``decode(read_json(path, schema))``; a document that lacks a key, an
    item or a value type that ``decode`` needs is an IoError naming ``path``."""
    doc = read_json(path, schema)
    try:
        return decode(doc)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise IoError(f"{path}: malformed {schema} document: {exc!r}") from exc


def write_rows(path: str, rows, header: list[str] | None = None):
    """Write a 2-d array as CSV, each value as ``%.17g``, under an optional
    header line of column names (the bytes of ``np.savetxt``, formatted by
    one ``%`` operation instead of one per row)."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    text = line * rows.shape[0] % tuple(rows.ravel())
    try:
        with open(path, "w") as fh:
            if header:
                fh.write(",".join(header) + "\n")
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_rows(path: str) -> np.ndarray:
    """Numeric rows of a CSV file whose first line is a header."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_trial_csv(path: str, trial: Trial):
    n_osc = trial.n_oscillators
    rows = np.empty((trial.times.shape[0], 1 + 2 * n_osc))
    rows[:, 0] = trial.times
    rows[:, 1::2] = trial.theta
    rows[:, 2::2] = trial.r
    header = ["t"] + [f"{name}_{i + 1}" for i in range(n_osc)
                      for name in ("theta", "r")]
    write_rows(path, rows, header)


def read_trial_csv(path: str) -> Trial:
    data = read_rows(path)
    if data.ndim != 2 or (data.shape[1] - 1) % 2 != 0:
        raise IoError(f"{path}: malformed trial file")
    if not np.isfinite(data).all():
        raise IoError(f"{path}: every trial value must be a finite number")
    n_osc = (data.shape[1] - 1) // 2
    return Trial(times=data[:, 0],
                 theta=data[:, 1:1 + 2 * n_osc:2],
                 r=data[:, 2:2 + 2 * n_osc:2])


def write_trial_set(out_dir: str, trial_set: TrialSet) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for p, trial in enumerate(trial_set.trials):
        path = os.path.join(out_dir, f"trial_{p:04d}.csv")
        write_trial_csv(path, trial)
        paths.append(os.path.basename(path))
    manifest = {"files": paths, "step": trial_set.step,
                "metadata": trial_set.metadata}
    write_json(os.path.join(out_dir, "manifest.json"), manifest, "trials")
    return paths


def read_trial_set(out_dir: str) -> TrialSet:
    manifest = os.path.join(out_dir, "manifest.json")
    paths, step, metadata = decode_json(manifest, "trials", lambda m: (
        [os.path.join(out_dir, f) for f in m["files"]], m["step"], m["metadata"]))
    if not paths:
        raise IoError(f"{manifest}: lists no trial files")
    return TrialSet([read_trial_csv(path) for path in paths], step, metadata)


def write_heatmap_csv(path: str, matrix: np.ndarray):
    write_rows(path, matrix)
