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
from dataclasses import asdict, dataclass

import numpy as np

from . import averaging, coupling, models, serialize, transforms, vf_reconstruction
from .basis import PairBasisSpec, SingleBasisSpec
from .errors import InvalidConfig, NoAnalyticForm
from .limit_cycle import (LimitCycle, find_limit_cycle, finite_number, floquet_from_monodromy,
                          is_finite_number)
# perfbench/tracer.py patches ``integrate`` here by name, so it stays bound.
from .ode import Trajectory, integrate  # noqa: F401
from .transforms import TransformSet, _wrap

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

GAMMA_HARMONICS = {
    "radial_isochron_clock": 8,
    "canonical": 8,
    "van_der_pol": 32,
    "wilson_cowan": 32,
}

# Non-circular cycles need more harmonics, a denser reduced-coordinate grid
# and a slightly narrower outer radius (the forward radius map steepens
# quickly outside the cycle).
KIND_DEFAULTS = {
    "radial_isochron_clock": {},
    "canonical": {},
    "van_der_pol": {
        "single_orders": (5, 10), "transform_orders": (7, 12),
        "ic_angles": 52, "ic_radii": 16, "radial_span": (0.75, 1.3),
    },
    "wilson_cowan": {
        "single_orders": (5, 10), "transform_orders": (6, 14),
        "ic_angles": 52, "ic_radii": 16, "radial_span": (0.75, 1.3),
    },
}

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


# Integer fields and their smallest valid value.
_INT_MINIMUMS = {"seed": 0, "n_trials": 1, "ic_angles": 1, "ic_radii": 1,
                 "grid_points": 10, "row_budget": 1}


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass
class PipelineConfig:
    model: dict
    out_dir: str
    seed: int = 0
    n_trials: int = 100
    trial_periods: float = 6.0
    radial_span: tuple[float, float] = (0.75, 1.35)
    ic_angles: int = 21
    ic_radii: int = 15
    single_orders: tuple[int, int] = (4, 5)
    transform_orders: tuple[int, int] = (4, 5)
    pair_orders: tuple[int, int, int] = (3, 2, 2)
    reduced_orders: tuple[int, int, int] = (2, 2, 2)
    grid_points: int = 4000
    row_budget: int = 60000

    def __post_init__(self):
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise InvalidConfig("out_dir", "must be a non-empty path")
        for key, low in _INT_MINIMUMS.items():
            value = getattr(self, key)
            if not (_is_int(value) and value >= low):
                raise InvalidConfig(key, f"must be an integer of at least {low}")
        if not (is_finite_number(self.trial_periods) and self.trial_periods > 0):
            raise InvalidConfig("trial_periods", "must be positive")
        span = self.radial_span
        if not (len(span) == 2 and all(map(is_finite_number, span)) and 0 < span[0] < span[1]):
            raise InvalidConfig("radial_span", "need two numbers 0 < lo < hi")
        for key in ("single_orders", "transform_orders", "pair_orders",
                    "reduced_orders"):
            try:
                if not all(map(_is_int, getattr(self, key))):
                    raise InvalidConfig(key, "orders must be integers")
                getattr(self, key.replace("_orders", "_spec"))
            except (TypeError, ValueError) as exc:
                raise InvalidConfig(key, str(exc)) from exc
        try:
            models.ModelSpec.from_dict(self.model)
        except Exception as exc:
            raise InvalidConfig("model", str(exc)) from exc

    @property
    def model_spec(self) -> models.ModelSpec:
        return models.ModelSpec.from_dict(self.model)

    @property
    def single_spec(self) -> SingleBasisSpec:
        return SingleBasisSpec(*self.single_orders)

    @property
    def transform_spec(self) -> SingleBasisSpec:
        return SingleBasisSpec(*self.transform_orders)

    @property
    def pair_spec(self) -> PairBasisSpec:
        return PairBasisSpec(*self.pair_orders, "observable")

    @property
    def reduced_spec(self) -> PairBasisSpec:
        return PairBasisSpec(*self.reduced_orders, "reduced")

    @property
    def n_gamma(self) -> int:
        return GAMMA_HARMONICS[self.model["kind"]]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        d.pop("schema", None)
        for key in ("radial_span", "single_orders", "transform_orders",
                    "pair_orders", "reduced_orders"):
            if key in d:
                try:
                    d[key] = tuple(d[key])
                except TypeError:
                    raise InvalidConfig(key, "must be a list of numbers") from None
        try:
            return cls(**d)
        except TypeError as exc:
            raise InvalidConfig("config", str(exc)) from exc


def default_config(kind: str, out_dir: str, seed: int = 0) -> PipelineConfig:
    return PipelineConfig(model=models.default_spec(kind).to_dict(),
                          out_dir=out_dir, seed=seed, **KIND_DEFAULTS[kind])


def _write(out_dir: str, name: str, doc: dict):
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
    count is not the model's is malformed, an IoError naming the file."""
    n = config.model_spec.n_oscillators

    def decode(doc):
        count = doc["n_oscillators"] if "n_oscillators" in doc else len(doc["oscillators"])
        if count != n:
            raise ValueError(f"{count} oscillators, but the model has {n}")
        return _DECODERS[name](doc)
    return serialize.decode_json(os.path.join(config.out_dir, f"{name}.json"), name, decode)


def stage_limit_cycle(config: PipelineConfig) -> dict:
    """Locate each oscillator's cycle, fit its profile, attach the Floquet data."""
    spec = config.model_spec
    os.makedirs(config.out_dir, exist_ok=True)
    oscillators = []
    for i, frame in enumerate(models.estimate_frame(spec)):
        vf = models.polar_uncoupled_vf(spec, i, frame)
        jac = models.polar_uncoupled_jacobian(spec, i, frame)
        if models.native_coords(spec.kind) == "polar":
            seed_state = np.array([0.3, 1.2])
        else:
            seed_state = models.cart_to_polar(models._settle_seed(spec, i), frame)
        cycle = find_limit_cycle(vf, seed_state, n_gamma=config.n_gamma)
        cycle = floquet_from_monodromy(vf, jac, cycle)
        oscillators.append({"frame": frame.to_dict(), "cycle": cycle.to_dict()})
    doc = {"kind": spec.kind, "oscillators": oscillators}
    _write(config.out_dir, "limit_cycle", doc)
    return doc


def stage_transforms(config: PipelineConfig) -> dict:
    """Reduced-coordinate sampling and transform fits, one set per oscillator."""
    frames, cycles = _load(config, "limit_cycle")
    vfs = _oscillator_fields(config, frames)
    oscillators = []
    for i, cycle in enumerate(cycles):
        ics = transforms.generate_ic_grid(cycle, config.ic_angles, config.ic_radii,
                                          config.radial_span)
        # Independent slope route to the Floquet exponent, for the report:
        # a probe run from 1.2 gamma(0), integrated as one more batch column.
        gamma0 = cycle.gamma_at(0.0)
        k = averaging._horizon_steps(cycle, cycle.lam, float(abs(1.2 * gamma0 - gamma0)))
        probe = np.zeros((k + 1, 2))
        probe[0, 1] = 1.2 * gamma0
        samples = averaging.reduced_coordinates_batch(vfs[i], cycle, ics, probe)
        ts = transforms.fit_transform_set(samples, config.transform_spec)
        traj = Trajectory(np.arange(k + 1) * cycle.step, probe, cycle.step)
        dev = averaging.observable_deviation(traj, cycle)
        lam_slope = averaging.refine_lambda(dev, 0.0)
        oscillators.append({"transforms": ts.to_dict(),
                            "lambda_slope": lam_slope})
    doc = {"oscillators": oscillators}
    _write(config.out_dir, "transforms", doc)
    return doc


def stage_simulate(config: PipelineConfig) -> dict:
    """Generate the synthetic trial files for the VF fit."""
    frames, cycles = _load(config, "limit_cycle")
    trials, step = vf_reconstruction.simulate_trial_set(
        config.model_spec, cycles, frames, n_trials=config.n_trials,
        periods=config.trial_periods, seed=config.seed,
        radial_span=config.radial_span)
    metadata = {"kind": config.model_spec.kind, "seed": config.seed,
                "n_trials": config.n_trials, "periods": config.trial_periods}
    serialize.write_trial_set(os.path.join(config.out_dir, "trials"), trials, step, metadata)
    return {"n_trials": config.n_trials}


def stage_vf(config: PipelineConfig) -> dict:
    """Fit the network vector field from the trial files."""
    # One expression, so no trial outlives the pooling into the design fit.
    nvf = vf_reconstruction.fit_network_vf(vf_reconstruction.pooled_rows(
        serialize.read_trial_set(os.path.join(config.out_dir, "trials"),
                                 config.model_spec.n_oscillators),
        config.row_budget), config.single_spec, config.pair_spec)
    doc = nvf.to_dict()
    _write(config.out_dir, "network_vf", doc)
    return doc


def stage_reduce(config: PipelineConfig) -> dict:
    """Map the fitted coupling into reduced space and export the heatmaps."""
    _, cycles = _load(config, "limit_cycle")
    nvf = _load(config, "network_vf")
    tsets, _ = _load(config, "transforms")
    grid = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    stats = [(float(g.min()), float(g.max()))
             for g in (c.gamma_at(grid) for c in cycles)]
    rc = coupling.reduce_network_coupling(
        nvf, tsets, stats, [c.omega for c in cycles], [c.lam for c in cycles],
        config.reduced_spec, count=config.grid_points, seed=config.seed + 1)
    doc = rc.to_dict()
    _write(config.out_dir, "reduced_coupling", doc)

    heat_dir = os.path.join(config.out_dir, "heatmaps")
    os.makedirs(heat_dir, exist_ok=True)
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


def _transform_rows(config, cycles, tsets, vfs, truths):
    """Per oscillator: σ and φ against the closed form, then the composition and
    invariance residuals inside the fitted domain, on radii that follow the
    cycle profile so non-circular cycles stay inside the sampled annulus."""
    ric = config.model_spec.kind == models.RADIAL_ISOCHRON_CLOCK
    th = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    u_lo, u_hi = config.radial_span
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
            err = float(np.abs(_wrap(phi_fit - gt.phi(TH_a, R_a))).max())
            yield _row(f"phi_transform_osc{i}", err, "phi_abs_ric" if ric else "phi_abs_canonical")
        R = U * cycle.gamma_at(TH)
        k_theta, k_r = ts.forward(*ts.inverse(TH, R))
        comp = max(float(np.abs(k_r - R).max()), float(np.abs(_wrap(k_theta - TH)).max()))
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
    powers = range(rc.spec.m_max + 1)
    for i, j in _pairs(spec.coupling)[0] if spec.kind == models.VAN_DER_POL else ():
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
    paths, _, _ = serialize.read_trial_manifest(os.path.join(config.out_dir, "trials"))
    trial = serialize.read_trial_csv(paths[0], spec.n_oscillators)
    try:
        truths = [models.analytic_ground_truth(spec, i) for i in range(spec.n_oscillators)]
    except NoAnalyticForm:
        truths = None
    rows = [*_lambda_rows(cycles, lam_slopes, truths),
            *_transform_rows(config, cycles, tsets, vfs, truths),
            *_field_rows(spec, nvf, vfs, trial),
            *_factorization_rows(spec, rc),
            *_directionality_rows(spec, nvf, rc),
            *_reduced_table_rows(spec, rc, truths)]
    report = {"model": spec.kind, "rows": rows, "pass": all(r["pass"] for r in rows)}
    _write(config.out_dir, "report", report)
    return report


def write_config(config: PipelineConfig):
    """Record the effective configuration as config.json in the output directory."""
    os.makedirs(config.out_dir, exist_ok=True)
    _write(config.out_dir, "config", config.to_dict())


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage in order and return the comparison report."""
    write_config(config)
    for stage in (stage_limit_cycle, stage_transforms, stage_simulate,
                  stage_vf, stage_reduce):
        stage(config)
    return stage_compare(config)
