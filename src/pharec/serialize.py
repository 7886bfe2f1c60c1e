"""Artifact and trial file formats.

JSON artifacts carry a versioned "schema" field and are written with sorted
keys so identical inputs produce byte-identical files.  A trial file holds
the columns ``t, theta_1, r_1, ...``, one row per sample.  ``simulate``
writes each trial as ``trial_NNNN.npy``, one C-contiguous float64 array of
shape (n, 1 + 2N) that reads back to the same bits.  A trial file of any
other name is CSV text under a header line, each value written as ``%.17g``
so that it too reads back to the same bits; measured data can be handed in
that way.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import IoError
from .vf_reconstruction import MIN_SAMPLES, Trial

__all__ = [
    "write_json",
    "read_json",
    "decode_json",
    "write_rows",
    "read_rows",
    "write_trial_csv",
    "read_trial_csv",
    "write_trial_set",
    "read_trial_manifest",
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
    """Write ``trial`` to ``path``: a ``.npy`` array if the name ends in
    ``.npy``, CSV text otherwise.  The name predates the binary format;
    renaming it waits for ROADMAP item 8, since the benchmark's tracer
    patches it by name."""
    n_osc = trial.n_oscillators
    rows = np.empty((trial.times.shape[0], 1 + 2 * n_osc))
    rows[:, 0] = trial.times
    rows[:, 1::2] = trial.theta
    rows[:, 2::2] = trial.r
    if not path.endswith(".npy"):
        header = ["t"] + [f"{name}_{i + 1}" for i in range(n_osc)
                          for name in ("theta", "r")]
        write_rows(path, rows, header)
        return
    try:
        with open(path, "wb") as fh:
            np.save(fh, rows, allow_pickle=False)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _read_npy(path: str) -> np.ndarray:
    """The float64 array of a ``.npy`` file; no pickled or object data."""
    try:
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not (isinstance(data, np.ndarray) and data.dtype == np.float64):
        raise IoError(f"{path}: a .npy trial file must hold one float64 array")
    return data


def read_trial_csv(path: str, n_oscillators: int | None = None) -> Trial:
    """A trial of at least MIN_SAMPLES rows and ``n_oscillators`` oscillators
    (any if None), from a ``.npy`` array if the name ends in ``.npy`` and from
    CSV text otherwise.  The name predates the binary format; renaming it
    waits for ROADMAP item 8, since the benchmark's tracer patches it by name."""
    data = _read_npy(path) if path.endswith(".npy") else read_rows(path)
    if data.ndim != 2 or data.shape[1] % 2 != 1 or data.shape[0] < MIN_SAMPLES:
        raise IoError(f"{path}: a trial file needs a t column, a theta, r pair per "
                      f"oscillator and at least {MIN_SAMPLES} rows")
    n_osc = data.shape[1] // 2
    if n_oscillators is not None and n_osc != n_oscillators:
        raise IoError(f"{path}: {n_osc} oscillators, but the model has {n_oscillators}")
    if not np.isfinite(data).all():
        raise IoError(f"{path}: every trial value must be a finite number")
    return Trial(times=data[:, 0],
                 theta=data[:, 1:1 + 2 * n_osc:2],
                 r=data[:, 2:2 + 2 * n_osc:2])


def write_trial_set(out_dir: str, trials: list[Trial], step: float, metadata: dict) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for p, trial in enumerate(trials):
        path = os.path.join(out_dir, f"trial_{p:04d}.npy")
        write_trial_csv(path, trial)
        paths.append(os.path.basename(path))
    manifest = {"files": paths, "step": step, "metadata": metadata}
    write_json(os.path.join(out_dir, "manifest.json"), manifest, "trials")
    return paths


def read_trial_manifest(out_dir: str) -> tuple[list[str], float, dict]:
    """Trial file paths (at least one, each once), step and metadata of a trials manifest."""
    manifest = os.path.join(out_dir, "manifest.json")
    files, step, metadata = decode_json(manifest, "trials", lambda m: (
        m["files"], m["step"], m["metadata"]))
    if not (isinstance(files, list) and files and all(isinstance(f, str) for f in files)
            and len(set(files)) == len(files)):
        raise IoError(f"{manifest}: 'files' must be a non-empty list of distinct file names")
    return [os.path.join(out_dir, f) for f in files], step, metadata


def read_trial_set(out_dir: str, n_oscillators: int | None = None) -> list[Trial]:
    paths, _, _ = read_trial_manifest(out_dir)
    return [read_trial_csv(path, n_oscillators) for path in paths]


def write_heatmap_csv(path: str, matrix: np.ndarray):
    write_rows(path, matrix)
