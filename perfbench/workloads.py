"""Workload definitions: inputs from the seed, the timed part, and its checks.

Each workload has three steps, all run inside one fresh repetition process:

- ``setup(work_dir, seed)`` builds the configuration (counted in setup_s);
- ``run(state)`` is the timed part;
- ``check(state, result)`` returns the correctness rows (name, value,
  bound, pass) and the row names expected.

``state.out_dir`` is the directory the timed part writes to.

``prepare(work_dir, seed)``, where present, builds inputs the timed part
reads; it runs once per benchmark run, before the repetitions, untimed.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from pharec import averaging, models, ode, pipeline, serialize
from pharec.limit_cycle import STEPS_PER_PERIOD, LimitCycle
from sources import code_digest

# Trials per run.  The pipeline default is 100; fewer trials keep one
# repetition inside the benchmark's per-run time budget.  At 40 trials the
# radial isochron clock report passes for seeds 0-29 and 42; at 30 or 20 its
# radial-coefficient rows fail at seed 42.  The canonical report passes at
# 30, 50 and 100 trials for seeds 0-9.
RIC_TRIALS = 40
INGEST_TRIALS = 30

# Flow-equivariance pairs for the van der Pol workload: tolerance and draw
# ranges follow the acceptance test of the averaging.
VDP_PAIRS = 24
VDP_OSCILLATOR = 0
EQUIVARIANCE_ABS = 1e-3
EQUIVARIANCE_STEPS = int(round(0.37 * STEPS_PER_PERIOD))

# Outputs of the stages the ingest workload re-runs.
INGEST_OUTPUTS = ("network_vf.json", "reduced_coupling.json", "heatmaps",
                  "report.json")


def _config(kind: str, out_dir: str, seed: int, **overrides) -> pipeline.PipelineConfig:
    d = pipeline.default_config(kind, out_dir, seed=seed).to_dict()
    d.update(overrides)
    return pipeline.PipelineConfig.from_dict(d)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _out_dir(work_dir: str) -> str:
    """Output directory of a repetition; run.py empties it beforehand."""
    out = os.path.join(work_dir, "out")
    os.makedirs(out, exist_ok=True)
    return out


def expected_report_rows(kind: str) -> list[str]:
    """Report row names of a two-oscillator model with 0 driving 1."""
    analytic = kind in ("radial_isochron_clock", "canonical")
    rows = []
    for i in range(2):
        rows += [f"lambda_monodromy_osc{i}", f"lambda_slope_osc{i}",
                 f"lambda_routes_osc{i}"]
    for i in range(2):
        rows += [f"sigma_transform_osc{i}", f"phi_transform_osc{i}",
                 f"composition_osc{i}", f"pde_phi_osc{i}", f"pde_sigma_osc{i}"]
    for i in range(2):
        rows += [f"vf_uncoupled_osc{i}_theta", f"vf_uncoupled_osc{i}_r"]
        if kind == "radial_isochron_clock":
            rows += [f"vf_radial_linear_osc{i}", f"vf_radial_cubic_osc{i}"]
    if kind == "van_der_pol":
        rows.append("factorization_1<-0")
    rows += ["directionality_observable_0<-1", "directionality_reduced_0<-1"]
    if analytic:
        rows += ["reduced_main_1<-0", "reduced_table_1<-0"]
    return rows


def _report_rows(report: dict) -> list[dict]:
    return [{"name": r["name"], "value": r["value"], "bound": r["bound"],
             "pass": bool(r["pass"])} for r in report["rows"]]


# -- ric_pipeline -------------------------------------------------------------

def ric_setup(work_dir: str, seed: int):
    return _config("radial_isochron_clock", _out_dir(work_dir), seed,
                   n_trials=RIC_TRIALS)


def ric_run(config):
    return pipeline.run_pipeline(config)


def ric_check(config, report):
    return _report_rows(report), expected_report_rows("radial_isochron_clock")


# -- vdp_cycle_averaging ------------------------------------------------------

def vdp_setup(work_dir: str, seed: int):
    return _config("van_der_pol", _out_dir(work_dir), seed)


def vdp_run(config):
    """Limit-cycle stage, then reduced coordinates of initial conditions and
    of their images under the flow, averaged in one batch."""
    doc = pipeline.stage_limit_cycle(config)
    osc = doc["oscillators"][VDP_OSCILLATOR]
    cycle = LimitCycle.from_dict(osc["cycle"])
    frame = models.ObservableFrame.from_dict(osc["frame"])
    vf = models.polar_uncoupled_vf(config.model_spec, VDP_OSCILLATOR, frame)
    rng = np.random.default_rng(config.seed)
    th0 = rng.uniform(0.0, 2.0 * np.pi, VDP_PAIRS)
    u0 = rng.uniform(0.92, 1.12, VDP_PAIRS)
    ics = np.stack([th0, u0 * cycle.gamma_at(th0)], axis=1)
    t = EQUIVARIANCE_STEPS * cycle.step
    moved = ode.integrate(vf, ics, t, cycle.step).final_state
    moved[:, 0] = np.mod(moved[:, 0], 2.0 * np.pi)
    samples = averaging.reduced_coordinates_batch(vf, cycle,
                                                  np.concatenate([ics, moved]))
    return cycle, t, samples


def vdp_check(config, result):
    cycle, t, samples = result
    start, end = samples[:VDP_PAIRS], samples[VDP_PAIRS:]
    rows = []
    for k, (s0, st) in enumerate(zip(start, end)):
        dphi = np.mod(st.phi0 - s0.phi0 - cycle.omega * t + np.pi,
                      2.0 * np.pi) - np.pi
        dsig = st.sigma0 - s0.sigma0 * np.exp(cycle.lam * t)
        for name, value in ((f"equivariance_phi_{k}", abs(dphi)),
                            (f"equivariance_sigma_{k}", abs(dsig))):
            rows.append({"name": name, "value": float(value),
                         "bound": EQUIVARIANCE_ABS,
                         "pass": bool(value < EQUIVARIANCE_ABS)})
    expected = [f"equivariance_{q}_{k}" for k in range(VDP_PAIRS)
                for q in ("phi", "sigma")]
    # The samples are results too: keep them for the byte-identity check.
    with open(os.path.join(config.out_dir, "samples.bench.json"), "w") as fh:
        json.dump([[s.phi0, s.sigma0] for s in samples], fh)
    return rows, expected


# -- canonical_csv_ingest -----------------------------------------------------

def ingest_prepare(work_dir: str, seed: int):
    """Artifact directory with CSV trials at the seed.

    The limit-cycle and transform artifacts do not depend on the seed; they
    are computed once per source version and copied from a cache.
    """
    config = _config("canonical", os.path.join(work_dir, "art"), seed,
                     n_trials=INGEST_TRIALS)
    cache = os.path.join(work_dir, "cache", code_digest())
    if not os.path.exists(os.path.join(cache, "transforms.json")):
        tmp = _fresh_dir(os.path.join(work_dir, "cache.tmp"))
        cfg = _config("canonical", tmp, 0, n_trials=INGEST_TRIALS)
        pipeline.stage_limit_cycle(cfg)
        pipeline.stage_transforms(cfg)
        _fresh_dir(os.path.dirname(cache))
        os.rename(tmp, cache)
    art = _fresh_dir(config.out_dir)
    for name in ("limit_cycle.json", "transforms.json"):
        shutil.copyfile(os.path.join(cache, name), os.path.join(art, name))
    serialize.write_json(os.path.join(art, "config.json"), config.to_dict(), "config")
    pipeline.stage_simulate(config)


def ingest_setup(work_dir: str, seed: int):
    art = os.path.join(work_dir, "art")
    config = pipeline.PipelineConfig.from_dict(
        serialize.read_json(os.path.join(art, "config.json"), "config"))
    if config.seed != seed:
        raise RuntimeError(f"prepared inputs are for seed {config.seed}, not {seed}")
    for name in INGEST_OUTPUTS:
        path = os.path.join(art, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    return config


def ingest_run(config):
    pipeline.stage_vf(config)
    pipeline.stage_reduce(config)
    return pipeline.stage_compare(config)


def ingest_check(config, report):
    return _report_rows(report), expected_report_rows("canonical")


WORKLOADS = {
    "ric_pipeline": {"setup": ric_setup, "run": ric_run, "check": ric_check},
    "vdp_cycle_averaging": {"setup": vdp_setup, "run": vdp_run,
                            "check": vdp_check},
    "canonical_csv_ingest": {"prepare": ingest_prepare, "setup": ingest_setup,
                             "run": ingest_run, "check": ingest_check},
}
