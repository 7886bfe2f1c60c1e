"""End-to-end orchestration: limit cycle -> Floquet -> reduced sampling ->
transform fits -> network VF fit -> reduced coupling, with JSON artifacts
per stage and a comparison report against analytic oracles when available.

Every stage reads its inputs from the artifact directory and writes its
outputs back there, so stages re-run individually and reproduce the full
pipeline's files byte for byte.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import averaging, coupling, models, serialize, transforms, vf_reconstruction
from .basis import PairBasisSpec, SingleBasisSpec
from .errors import InvalidConfig, NoAnalyticForm
from .limit_cycle import LimitCycle, find_limit_cycle, finite_number, floquet_from_monodromy
# perfbench/tracer.py patches ``integrate`` here by name, so it stays bound.
from .ode import integrate  # noqa: F401
from .transforms import TransformSet, wrap_angle

__all__ = [
    "PipelineConfig",
    "default_config",
    "stage_simulate",
    "stage_limit_cycle",
    "stage_transforms",
    "stage_vf",
    "stage_reduce",
    "stage_compare",
    "write_config",
    "run_pipeline",
]

# The method's settings of each model kind: cycle-profile harmonics, the
# orders of the uncoupled field's and of the transforms' series, the
# initial-condition grid of the averages, and the radial span of those
# initial conditions and of the trials. Non-circular cycles need more
# harmonics, a denser grid and a slightly narrower outer radius (the forward
# radius map steepens quickly outside the cycle).
_POLAR = {"n_gamma": 8, "single": SingleBasisSpec(4, 5), "transform": SingleBasisSpec(4, 5),
          "ic_angles": 21, "ic_radii": 15, "radial_span": (0.75, 1.35)}
_CARTESIAN = {"n_gamma": 32, "single": SingleBasisSpec(5, 10),
              "ic_angles": 52, "ic_radii": 16, "radial_span": (0.75, 1.3)}
KIND_SETTINGS = {
    "radial_isochron_clock": dict(_POLAR),
    "canonical": dict(_POLAR),
    "van_der_pol": dict(_CARTESIAN, transform=SingleBasisSpec(7, 12)),
    "wilson_cowan": dict(_CARTESIAN, transform=SingleBasisSpec(6, 14)),
}

# Settings shared by every kind: trial duration in cycle periods, the
# coupling series' orders in observable and reduced coordinates, the
# reduced-coupling evaluation points and the VF fit's pooled-row budget.
TRIAL_PERIODS = 6.0
PAIR_SPEC = PairBasisSpec(3, 2, 2, "observable")
REDUCED_SPEC = PairBasisSpec(2, 2, 2, "reduced")
GRID_POINTS = 4000
ROW_BUDGET = 60000

# Pass bounds of the report rows; each row records the bound it was held to.
TOLERANCES = {
    "lambda_monodromy_rel": 0.01,
    "lambda_slope_rel": 0.005,
    "lambda_routes_rel": 0.01,
    "sigma_abs": 5e-3,
    "sigma_rel_scaled": 0.02,
    "phi_abs_ric": 5e-3,
    "phi_abs_canonical": 1e-2,
    "composition_abs": 1e-2,
    "pde_phi_rel": 1e-2,
    "pde_sigma_rel": 1e-2,
    "vf_uncoupled_abs": 5e-2,
    "vf_radial_coeff_rel": 0.02,
    "factorization_energy": 0.8,
    "directionality_ratio": 0.1,
    "reduced_main_rel": 0.10,
    "reduced_table_rel": 0.15,
}


@dataclass
class PipelineConfig:
    """The model, the output directory, the seed and the trial count; every
    other setting is the model kind's row of KIND_SETTINGS or a constant."""

    model: dict
    out_dir: str
    seed: int = 0
    n_trials: int = 100

    def __post_init__(self):
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise InvalidConfig("out_dir", "must be a non-empty path")
        for key, low in (("seed", 0), ("n_trials", 1)):
            value = getattr(self, key)
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                    and value >= low):
                raise InvalidConfig(key, f"must be an integer of at least {low}")
        try:
            models.ModelSpec.from_dict(self.model)
        except Exception as exc:
            raise InvalidConfig("model", str(exc)) from exc

    @property
    def model_spec(self) -> models.ModelSpec:
        return models.ModelSpec.from_dict(self.model)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        d.pop("schema", None)
        extra = sorted(set(d) - {f.name for f in fields(cls)})
        if extra:
            raise InvalidConfig("config", f"unknown keys: {', '.join(map(str, extra))}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise InvalidConfig("config", str(exc)) from exc


def default_config(kind: str, out_dir: str, seed: int = 0) -> PipelineConfig:
    return PipelineConfig(model=models.default_spec(kind).to_dict(),
                          out_dir=out_dir, seed=seed)


def _write(out_dir: str, name: str, doc: dict):
    serialize.make_dir(out_dir)
    serialize.write_json(os.path.join(out_dir, f"{name}.json"), doc, name)


def _oscillator_fields(config: PipelineConfig, frames):
    """Per-oscillator polar vector fields of the uncoupled model."""
    return [models.polar_uncoupled_vf(config.model_spec, i, f) for i, f in enumerate(frames)]


# Decoder of each JSON artifact a stage reads.
_DECODERS = {
    "limit_cycle": lambda doc: (
        [models.ObservableFrame.from_dict(o["frame"]) for o in doc["oscillators"]],
        [LimitCycle.from_dict(o["cycle"]) for o in doc["oscillators"]]),
    "transforms": lambda doc: (
        [TransformSet.from_dict(o["transforms"]) for o in doc["oscillators"]],
        [finite_number(o["lambda_slope"], "lambda_slope") for o in doc["oscillators"]]),
    "network_vf": vf_reconstruction.NetworkVF.from_dict,
    "reduced_coupling": coupling.ReducedCoupling.from_dict,
}


def _load(config: PipelineConfig, name: str):
    """The decoded ``<name>.json`` of the run directory; one whose oscillator
    count or recorded ``kind`` is not the model's is malformed, an IoError naming the file."""
    spec = config.model_spec

    def decode(doc):
        count = doc["n_oscillators"] if "n_oscillators" in doc else len(doc["oscillators"])
        if count != spec.n_oscillators:
            raise ValueError(f"{count} oscillators, but the model has {spec.n_oscillators}")
        if name == "limit_cycle" and doc["kind"] != spec.kind:
            raise ValueError(f"recorded for {doc['kind']!r}, but the model is {spec.kind!r}")
        return _DECODERS[name](doc)
    return serialize.decode_json(os.path.join(config.out_dir, f"{name}.json"), name, decode)


def stage_limit_cycle(config: PipelineConfig) -> dict:
    """Locate each oscillator's cycle, fit its profile, attach the Floquet data."""
    spec = config.model_spec
    oscillators = []
    for i, frame in enumerate(models.estimate_frame(spec)):
        vf = models.polar_uncoupled_vf(spec, i, frame)
        jac = models.polar_uncoupled_jacobian(spec, i, frame)
        cycle = find_limit_cycle(vf, models.cycle_seed(spec, i, frame),
                                 n_gamma=KIND_SETTINGS[spec.kind]["n_gamma"])
        cycle = floquet_from_monodromy(vf, jac, cycle)
        oscillators.append({"frame": frame.to_dict(), "cycle": cycle.to_dict()})
    doc = {"kind": spec.kind, "oscillators": oscillators}
    _write(config.out_dir, "limit_cycle", doc)
    return doc


def stage_transforms(config: PipelineConfig) -> dict:
    """Reduced-coordinate sampling and transform fits, one set per oscillator."""
    frames, cycles = _load(config, "limit_cycle")
    vfs = _oscillator_fields(config, frames)
    settings = KIND_SETTINGS[config.model_spec.kind]
    oscillators = []
    for i, cycle in enumerate(cycles):
        ics = transforms.generate_ic_grid(cycle, settings["ic_angles"], settings["ic_radii"],
                                          settings["radial_span"])
        # The slope route to the Floquet exponent, for the report: its probe rides in the batch.
        probe = averaging.slope_probe(cycle)
        samples = averaging.reduced_coordinates_batch(vfs[i], cycle, ics, probe)
        ts = transforms.fit_transform_set(samples, settings["transform"])
        oscillators.append({"transforms": ts.to_dict(),
                            "lambda_slope": averaging.refine_lambda(probe, cycle)})
    doc = {"oscillators": oscillators}
    _write(config.out_dir, "transforms", doc)
    return doc


def stage_simulate(config: PipelineConfig) -> dict:
    """Generate the synthetic trial files for the VF fit."""
    frames, cycles = _load(config, "limit_cycle")
    trials, step = vf_reconstruction.simulate_trial_set(
        config.model_spec, cycles, frames, n_trials=config.n_trials,
        periods=TRIAL_PERIODS, seed=config.seed,
        radial_span=KIND_SETTINGS[config.model_spec.kind]["radial_span"])
    metadata = {"kind": config.model_spec.kind, "seed": config.seed,
                "n_trials": config.n_trials, "periods": TRIAL_PERIODS}
    serialize.write_trial_set(os.path.join(config.out_dir, "trials"), trials, step, metadata)
    return {"n_trials": config.n_trials}


def stage_vf(config: PipelineConfig) -> dict:
    """Fit the network vector field from the trial files."""
    # One expression, so no trial outlives the pooling into the design fit.
    nvf = vf_reconstruction.fit_network_vf(vf_reconstruction.pooled_rows(
        serialize.read_trial_set(os.path.join(config.out_dir, "trials"),
                                 config.model_spec.n_oscillators),
        ROW_BUDGET), KIND_SETTINGS[config.model_spec.kind]["single"], PAIR_SPEC)
    doc = nvf.to_dict()
    _write(config.out_dir, "network_vf", doc)
    return doc


def stage_reduce(config: PipelineConfig) -> dict:
    """Map the fitted coupling into reduced space and export the heatmaps."""
    _, cycles = _load(config, "limit_cycle")
    nvf = _load(config, "network_vf")
    tsets, _ = _load(config, "transforms")
    rc = coupling.reduce_network_coupling(nvf, tsets, cycles, REDUCED_SPEC,
                                          count=GRID_POINTS, seed=config.seed + 1)
    heat_dir = os.path.join(config.out_dir, "heatmaps")
    serialize.make_dir(heat_dir)
    doc = rc.to_dict()
    _write(config.out_dir, "reduced_coupling", doc)

    manifest = {"panels": []}
    for (i, j, eq) in sorted(rc.series):
        layout = coupling.heatmap_layout(rc, i, j, eq)
        for (mi, mj), panel in layout["panels"].items():
            name = f"pair_{i}_{j}_{eq}_s{mi}{mj}.csv"
            serialize.write_heatmap_csv(os.path.join(heat_dir, name), panel)
            manifest["panels"].append({
                "file": name, "pair": [i, j], "equation": eq,
                "sigma_powers": [mi, mj],
                "row_labels": layout["row_labels"],
                "col_labels": layout["col_labels"],
            })
    serialize.write_json(os.path.join(heat_dir, "manifest.json"),
                         manifest, "heatmaps")
    return doc


def _row(name: str, value: float, tol: str, lower_is_pass: bool = True) -> dict:
    """Row held to the bound ``TOLERANCES[tol]``, a ceiling or a floor. Its
    headroom, value/bound or bound/value, is at most 1 while it passes, and
    null where that would divide by zero."""
    value, bound = float(value), float(TOLERANCES[tol])
    num, den = (value, bound) if lower_is_pass else (bound, value)
    return {"name": name, "value": value, "bound": bound,
            "pass": bool(value <= bound) if lower_is_pass else bool(value >= bound),
            "headroom": num / den if den else None}


def _skip_rows(*names: str) -> list:
    return [{"name": name, "value": None, "bound": None, "pass": True,
             "headroom": None, "note": "oracle unavailable"} for name in names]


def _pairs(eps: np.ndarray):
    """Driven pairs (eps[i, j] != 0) and silent directions (eps[i, j] == 0 but
    eps[j, i] != 0) as [i, j] lists in row-major order; the diagonal is zero."""
    return (np.argwhere(eps != 0).tolist(),
            np.argwhere((eps == 0) & (eps.T != 0)).tolist())


def _sup(series: dict, i: int, j: int, parts) -> float:
    """Largest coefficient magnitude of the (i, j, part) series over ``parts``."""
    return max(float(np.abs(series[(i, j, p)].coefficients).max()) for p in parts)


def _lambda_rows(cycles, lam_slopes, truths):
    """λ by the monodromy and by the slope route against the closed form, and
    the two routes against each other."""
    for i, (cycle, slope) in enumerate(zip(cycles, lam_slopes)):
        if truths is None:
            yield from _skip_rows(f"lambda_monodromy_osc{i}", f"lambda_slope_osc{i}")
        else:
            lam = truths[i].lam
            yield _row(f"lambda_monodromy_osc{i}", abs(cycle.lam - lam) / abs(lam),
                       "lambda_monodromy_rel")
            yield _row(f"lambda_slope_osc{i}", abs(slope - lam) / abs(lam), "lambda_slope_rel")
        yield _row(f"lambda_routes_osc{i}", abs(slope - cycle.lam) / abs(cycle.lam),
                   "lambda_routes_rel")


def _transform_rows(spec, cycles, tsets, vfs, truths):
    """Per oscillator: σ and φ against the closed form, then the composition and
    invariance residuals inside the fitted domain, on radii that follow the
    cycle profile so non-circular cycles stay inside the sampled annulus."""
    ric = spec.kind == models.RADIAL_ISOCHRON_CLOCK
    th = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    u_lo, u_hi = KIND_SETTINGS[spec.kind]["radial_span"]
    trim = 0.1 * (u_hi - u_lo)
    TH, U = np.meshgrid(th, np.linspace(u_lo + trim, u_hi - trim, 15))
    for i, (cycle, ts, vf) in enumerate(zip(cycles, tsets, vfs)):
        if truths is None:
            yield from _skip_rows(f"sigma_transform_osc{i}", f"phi_transform_osc{i}")
        else:
            gt = truths[i]
            TH_a, R_a = np.meshgrid(th, np.linspace(0.8, 1.3 if ric else 1.25, 15))
            phi_fit, sig_fit = ts.inverse(TH_a, R_a)
            if ric:
                sig_err = np.abs(sig_fit - gt.sigma_scale * gt.sigma(TH_a, R_a))
                yield _row(f"sigma_transform_osc{i}", float(sig_err.max()), "sigma_abs")
            else:
                ana = gt.sigma(TH_a, R_a)
                scale = float(np.sum(sig_fit * ana) / np.sum(ana * ana))
                rel = float(np.abs(sig_fit - scale * ana).max() / np.abs(scale * ana).max())
                yield _row(f"sigma_transform_osc{i}", rel, "sigma_rel_scaled")
            err = float(np.abs(wrap_angle(phi_fit - gt.phi(TH_a, R_a))).max())
            yield _row(f"phi_transform_osc{i}", err, "phi_abs_ric" if ric else "phi_abs_canonical")
        R = U * cycle.gamma_at(TH)
        k_theta, k_r = ts.forward(*ts.inverse(TH, R))
        comp = max(float(np.abs(k_r - R).max()), float(np.abs(wrap_angle(k_theta - TH)).max()))
        yield _row(f"composition_osc{i}", comp, "composition_abs")
        f = vf(np.stack([TH, R], axis=-1))
        (_, dpt, dpr), (sig, dst, dsr) = ts.inverse_grad(TH, R)
        res_phi = np.sqrt(np.mean((f[..., 0] * dpt + f[..., 1] * dpr - cycle.omega) ** 2))
        res_sig = np.sqrt(np.mean((f[..., 0] * dst + f[..., 1] * dsr - cycle.lam * sig) ** 2))
        yield _row(f"pde_phi_osc{i}", float(res_phi / cycle.omega), "pde_phi_rel")
        yield _row(f"pde_sigma_osc{i}", float(res_sig / (abs(cycle.lam) * np.abs(sig).max())),
                   "pde_sigma_rel")


def _field_rows(spec, nvf, vfs, trial):
    """Fitted uncoupled field against the model's own at observed data points
    (the first trial, decimated); on the radial isochron clock, also its
    linear and cubic radial coefficients against a and -a."""
    for i, vf in enumerate(vfs):
        th_d, r_d = trial.theta[::10, i], trial.r[::10, i]
        fitted = vf_reconstruction.eval_uncoupled(nvf, i, th_d, r_d)
        dev = np.abs(fitted - vf(np.stack([th_d, r_d], axis=-1)))
        yield _row(f"vf_uncoupled_osc{i}_theta", float(dev[..., 0].max()), "vf_uncoupled_abs")
        yield _row(f"vf_uncoupled_osc{i}_r", float(dev[..., 1].max()), "vf_uncoupled_abs")
        if spec.kind == models.RADIAL_ISOCHRON_CLOCK:
            a, radial = spec.param("a", i), nvf.uncoupled[(i, "r")]
            yield _row(f"vf_radial_linear_osc{i}", abs(radial.coefficient(n=1, k=0) - a) / a,
                       "vf_radial_coeff_rel")
            yield _row(f"vf_radial_cubic_osc{i}", abs(radial.coefficient(n=3, k=0) + a) / a,
                       "vf_radial_coeff_rel")


def _factorization_rows(spec, rc):
    """On van der Pol, the leading singular value's share of the energy of each
    driven pair's reduced φ coupling, its panels tiled by (σ_i, σ_j) powers up
    to m_max; a floor."""
    for i, j in _pairs(spec.coupling)[0] if spec.kind == models.VAN_DER_POL else ():
        powers = range(rc.series[(i, j, "phi")].spec.m_max + 1)
        panels = coupling.heatmap_layout(rc, i, j, "phi")["panels"]
        mat = np.block([[panels[(mi, mj)] for mj in powers] for mi in powers])
        sv = np.linalg.svd(mat, compute_uv=False)
        yield _row(f"factorization_{i}<-{j}", float(sv[0] ** 2 / np.sum(sv ** 2)),
                   "factorization_energy", lower_is_pass=False)


def _directionality_rows(spec, nvf, rc):
    """Coupling fitted into each silent direction against the driven reverse
    one, in the observable and in the reduced coordinates."""
    for i, j in _pairs(spec.coupling)[1]:
        for label, series, parts in (("observable", nvf.coupling, ("theta", "r")),
                                     ("reduced", rc.series, ("phi", "sigma"))):
            yield _row(f"directionality_{label}_{i}<-{j}",
                       _sup(series, i, j, parts) / _sup(series, j, i, parts),
                       "directionality_ratio")


def _reduced_table_rows(spec, rc, truths):
    """Reduced coupling coefficients of each driven pair against the closed-form
    tables, over the terms of at least a tenth of the coupling strength: the
    first term of the (0, 0) φ panel, and the worst term of both equations."""
    if truths is None:
        return
    for i, j in _pairs(spec.coupling)[0]:
        tables = models.analytic_reduced_coupling_terms(spec, i, j)
        worst, main_rel = 0.0, None
        for eq in ("phi", "sigma"):
            fitted = rc.series[(i, j, eq)]
            for (mi, mj), terms in tables[eq].items():
                for (own, inp), want in terms.items():
                    if abs(want) < 0.1 * abs(spec.coupling[i, j]):
                        continue
                    got = fitted.coefficient(mi=mi, mj=mj, own_k=0 if own == "1" else 1,
                                             own_trig=own, inp_k=1, inp_trig=inp)
                    rel = abs(got - want) / abs(want)
                    worst = max(worst, rel)
                    if eq == "phi" and (mi, mj) == (0, 0) and main_rel is None:
                        main_rel = rel
        yield _row(f"reduced_main_{i}<-{j}", main_rel, "reduced_main_rel")
        yield _row(f"reduced_table_{i}<-{j}", worst, "reduced_table_rel")


def stage_compare(config: PipelineConfig) -> dict:
    """Tolerance report against analytic oracles and structural checks: the
    artifacts loaded once, then the rows of each family in turn."""
    spec = config.model_spec
    frames, cycles = _load(config, "limit_cycle")
    vfs = _oscillator_fields(config, frames)
    tsets, lam_slopes = _load(config, "transforms")
    nvf = _load(config, "network_vf")
    rc = _load(config, "reduced_coupling")
    trial, = serialize.read_trial_set(os.path.join(config.out_dir, "trials"),
                                      spec.n_oscillators, count=1)
    try:
        truths = [models.analytic_ground_truth(spec, i) for i in range(spec.n_oscillators)]
    except NoAnalyticForm:
        truths = None
    rows = [*_lambda_rows(cycles, lam_slopes, truths),
            *_transform_rows(spec, cycles, tsets, vfs, truths),
            *_field_rows(spec, nvf, vfs, trial),
            *_factorization_rows(spec, rc),
            *_directionality_rows(spec, nvf, rc),
            *_reduced_table_rows(spec, rc, truths)]
    report = {"model": spec.kind, "rows": rows, "pass": all(r["pass"] for r in rows)}
    _write(config.out_dir, "report", report)
    return report


def write_config(config: PipelineConfig):
    """Record the effective configuration as config.json in the output directory."""
    _write(config.out_dir, "config", config.to_dict())


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage in order and return the comparison report."""
    write_config(config)
    for stage in (stage_limit_cycle, stage_transforms, stage_simulate,
                  stage_vf, stage_reduce):
        stage(config)
    return stage_compare(config)
