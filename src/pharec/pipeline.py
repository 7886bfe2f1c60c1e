"""End-to-end orchestration: limit cycle -> Floquet -> reduced sampling ->
transform fits -> network VF fit -> reduced coupling, with JSON artifacts
per stage and a comparison report against analytic oracles when available.

Every stage reads its inputs from the artifact directory and writes its
outputs back there, so stages re-run individually and reproduce the full
pipeline's files byte for byte.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import averaging, coupling, models, serialize, transforms, vf_reconstruction
from .basis import PairBasisSpec, SingleBasisSpec
from .errors import InvalidConfig, NoAnalyticForm
from .limit_cycle import LimitCycle, find_limit_cycle, floquet_from_monodromy
from .ode import integrate
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


def _is_finite(x) -> bool:
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))


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
        for key, low in _INT_MINIMUMS.items():
            value = getattr(self, key)
            if not (_is_int(value) and value >= low):
                raise InvalidConfig(key, f"must be an integer of at least {low}")
        if not (_is_finite(self.trial_periods) and self.trial_periods > 0):
            raise InvalidConfig("trial_periods", "must be positive")
        span = self.radial_span
        if not (len(span) == 2 and all(map(_is_finite, span)) and 0 < span[0] < span[1]):
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


def _read(out_dir: str, name: str, decode):
    """``decode`` of the artifact ``<name>.json`` of a run directory, checked
    against schema ``name``."""
    return serialize.decode_json(os.path.join(out_dir, f"{name}.json"), name, decode)


def _write(out_dir: str, name: str, doc: dict):
    serialize.write_json(os.path.join(out_dir, f"{name}.json"), doc, name)


def _oscillator_fields(config: PipelineConfig, frames):
    """Per-oscillator polar vector fields of the uncoupled model."""
    spec = config.model_spec
    return [models.polar_uncoupled_vf(spec, i, frames[i])
            for i in range(spec.n_oscillators)]


def _counted(n_oscillators: int | None, decode, count=lambda doc: len(doc["oscillators"])):
    """``decode`` of an artifact that must hold ``n_oscillators`` oscillators
    (any number when None); a mismatch is a ValueError, so ``_read`` reports
    a malformed artifact naming the file."""
    def checked(doc):
        if n_oscillators is not None and count(doc) != n_oscillators:
            raise ValueError(f"{count(doc)} oscillators, but the model has {n_oscillators}")
        return decode(doc)
    return checked


def _load_cycles(out_dir: str, n_oscillators: int | None = None):
    return _read(out_dir, "limit_cycle", _counted(n_oscillators, lambda doc: (
        [models.ObservableFrame.from_dict(o["frame"]) for o in doc["oscillators"]],
        [LimitCycle.from_dict(o["cycle"]) for o in doc["oscillators"]])))


def _load_network_vf(config: PipelineConfig):
    return _read(config.out_dir, "network_vf", _counted(
        config.model_spec.n_oscillators, vf_reconstruction.NetworkVF.from_dict,
        lambda doc: doc["n_oscillators"]))


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
    frames, cycles = _load_cycles(config.out_dir, config.model_spec.n_oscillators)
    vfs = _oscillator_fields(config, frames)
    oscillators = []
    for i, cycle in enumerate(cycles):
        ics = transforms.generate_ic_grid(cycle, config.ic_angles, config.ic_radii,
                                          config.radial_span)
        samples = averaging.reduced_coordinates_batch(vfs[i], cycle, ics)
        ts = transforms.fit_transform_set(samples, config.transform_spec)
        # Independent slope route to the Floquet exponent, for the report.
        gamma0 = cycle.gamma_at(0.0)
        probe = np.array([0.0, 1.2 * gamma0])
        horizon = averaging._horizon_steps(cycle, cycle.lam,
                                           float(abs(probe[1] - gamma0)))
        traj = integrate(vfs[i], probe, horizon * cycle.step, cycle.step)
        dev = averaging.observable_deviation(traj, cycle)
        lam_slope = averaging.refine_lambda(dev, 0.0)
        oscillators.append({"transforms": ts.to_dict(),
                            "lambda_slope": lam_slope})
    doc = {"oscillators": oscillators}
    _write(config.out_dir, "transforms", doc)
    return doc


def stage_simulate(config: PipelineConfig) -> dict:
    """Generate the synthetic trial files for the VF fit."""
    frames, cycles = _load_cycles(config.out_dir, config.model_spec.n_oscillators)
    trial_set = vf_reconstruction.simulate_trial_set(
        config.model_spec, cycles, frames, n_trials=config.n_trials,
        periods=config.trial_periods, seed=config.seed,
        radial_span=config.radial_span)
    serialize.write_trial_set(os.path.join(config.out_dir, "trials"), trial_set)
    return {"n_trials": config.n_trials}


def stage_vf(config: PipelineConfig) -> dict:
    """Fit the network vector field from the trial files."""
    trial_set = serialize.read_trial_set(os.path.join(config.out_dir, "trials"))
    nvf = vf_reconstruction.fit_network_vf(trial_set, config.single_spec,
                                           config.pair_spec, config.row_budget)
    doc = nvf.to_dict()
    _write(config.out_dir, "network_vf", doc)
    return doc


def stage_reduce(config: PipelineConfig) -> dict:
    """Map the fitted coupling into reduced space and export the heatmaps."""
    n = config.model_spec.n_oscillators
    _, cycles = _load_cycles(config.out_dir, n)
    nvf = _load_network_vf(config)
    tsets = _read(config.out_dir, "transforms", _counted(n, lambda doc: [
        TransformSet.from_dict(o["transforms"]) for o in doc["oscillators"]]))
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


def _row(name: str, value: float, bound: float, lower_is_pass: bool = True) -> dict:
    ok = bool(value <= bound) if lower_is_pass else bool(value >= bound)
    return {"name": name, "value": float(value), "bound": float(bound), "pass": ok}


def _skip_rows(*names: str) -> list:
    return [{"name": name, "value": None, "bound": None, "pass": True,
             "note": "oracle unavailable"} for name in names]


def _pairs(eps: np.ndarray):
    """Driven pairs (eps[i, j] != 0) and silent directions (eps[i, j] == 0 but
    eps[j, i] != 0) as [i, j] lists in row-major order; the diagonal is zero."""
    return (np.argwhere(eps != 0).tolist(),
            np.argwhere((eps == 0) & (eps.T != 0)).tolist())


def _sup(series: dict, i: int, j: int, parts) -> float:
    """Largest coefficient magnitude of the (i, j, part) series over ``parts``."""
    return max(float(np.abs(series[(i, j, p)].coefficients).max()) for p in parts)


def stage_compare(config: PipelineConfig) -> dict:
    """Tolerance report against analytic oracles and structural checks."""
    spec = config.model_spec
    tol = TOLERANCES
    frames, cycles = _load_cycles(config.out_dir, spec.n_oscillators)
    vfs = _oscillator_fields(config, frames)
    tsets, lam_slopes = _read(config.out_dir, "transforms", _counted(
        spec.n_oscillators, lambda doc: (
            [TransformSet.from_dict(o["transforms"]) for o in doc["oscillators"]],
            [float(o["lambda_slope"]) for o in doc["oscillators"]])))
    nvf = _load_network_vf(config)
    rc = _read(config.out_dir, "reduced_coupling", coupling.ReducedCoupling.from_dict)

    try:
        truths = [models.analytic_ground_truth(spec, i)
                  for i in range(spec.n_oscillators)]
    except NoAnalyticForm:
        truths = None

    rows = []
    for i, cycle in enumerate(cycles):
        if truths is not None:
            gt = truths[i]
            rows.append(_row(f"lambda_monodromy_osc{i}",
                             abs(cycle.lam - gt.lam) / abs(gt.lam),
                             tol["lambda_monodromy_rel"]))
            rows.append(_row(f"lambda_slope_osc{i}",
                             abs(lam_slopes[i] - gt.lam) / abs(gt.lam),
                             tol["lambda_slope_rel"]))
        else:
            rows += _skip_rows(f"lambda_monodromy_osc{i}", f"lambda_slope_osc{i}")
        rows.append(_row(f"lambda_routes_osc{i}",
                         abs(lam_slopes[i] - cycle.lam) / abs(cycle.lam),
                         tol["lambda_routes_rel"]))

    th = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    u_lo, u_hi = config.radial_span
    trim = 0.1 * (u_hi - u_lo)
    u = np.linspace(u_lo + trim, u_hi - trim, 15)
    for i, (cycle, ts) in enumerate(zip(cycles, tsets)):
        if truths is not None:
            r_hi = 1.3 if spec.kind == models.RADIAL_ISOCHRON_CLOCK else 1.25
            TH, R = np.meshgrid(th, np.linspace(0.8, r_hi, 15))
            gt = truths[i]
            phi_fit, sig_fit = ts.inverse(TH, R)
            ric = spec.kind == models.RADIAL_ISOCHRON_CLOCK
            if ric:
                sig_err = np.abs(sig_fit - gt.sigma_scale * gt.sigma(TH, R))
                rows.append(_row(f"sigma_transform_osc{i}", float(sig_err.max()),
                                 tol["sigma_abs"]))
            else:
                ana = gt.sigma(TH, R)
                scale = float(np.sum(sig_fit * ana) / np.sum(ana * ana))
                rel = float(np.abs(sig_fit - scale * ana).max() / np.abs(scale * ana).max())
                rows.append(_row(f"sigma_transform_osc{i}", rel,
                                 tol["sigma_rel_scaled"]))
            rows.append(_row(f"phi_transform_osc{i}",
                             float(np.abs(_wrap(phi_fit - gt.phi(TH, R))).max()),
                             tol["phi_abs_ric" if ric else "phi_abs_canonical"]))
        else:
            rows += _skip_rows(f"sigma_transform_osc{i}", f"phi_transform_osc{i}")

        # Composition and invariance residuals on the interior of the fitted
        # domain, following the cycle profile so non-circular cycles stay
        # inside the sampled annulus.
        TH, U = np.meshgrid(th, u)
        R = U * cycle.gamma_at(TH)
        k_theta, k_r = ts.forward(*ts.inverse(TH, R))
        comp = max(float(np.abs(k_r - R).max()), float(np.abs(_wrap(k_theta - TH)).max()))
        rows.append(_row(f"composition_osc{i}", comp, tol["composition_abs"]))

        f = vfs[i](np.stack([TH, R], axis=-1))
        (_, dpt, dpr), (sig, dst, dsr) = ts.inverse_grad(TH, R)
        res_phi = np.sqrt(np.mean((f[..., 0] * dpt + f[..., 1] * dpr - cycle.omega) ** 2))
        res_sig = np.sqrt(np.mean((f[..., 0] * dst + f[..., 1] * dsr - cycle.lam * sig) ** 2))
        rows.append(_row(f"pde_phi_osc{i}", float(res_phi / cycle.omega),
                         tol["pde_phi_rel"]))
        rows.append(_row(f"pde_sigma_osc{i}",
                         float(res_sig / (abs(cycle.lam) * np.abs(sig).max())),
                         tol["pde_sigma_rel"]))

    # Fitted uncoupled field against the model's own uncoupled field at
    # observed data points (first trial, decimated).
    trials_dir = os.path.join(config.out_dir, "trials")
    trial = serialize.read_trial_csv(serialize.decode_json(
        os.path.join(trials_dir, "manifest.json"), "trials",
        lambda manifest: os.path.join(trials_dir, manifest["files"][0])))
    for i in range(spec.n_oscillators):
        th_d, r_d = trial.theta[::10, i], trial.r[::10, i]
        fitted = vf_reconstruction.eval_uncoupled(nvf, i, th_d, r_d)
        true = vfs[i](np.stack([th_d, r_d], axis=-1))
        dev = np.abs(fitted - true)
        rows.append(_row(f"vf_uncoupled_osc{i}_theta",
                         float(dev[..., 0].max()), tol["vf_uncoupled_abs"]))
        rows.append(_row(f"vf_uncoupled_osc{i}_r",
                         float(dev[..., 1].max()), tol["vf_uncoupled_abs"]))
        if spec.kind == models.RADIAL_ISOCHRON_CLOCK:
            a = spec.param("a", i)
            q1 = nvf.uncoupled[(i, "r")].coefficient(n=1, k=0)
            q3 = nvf.uncoupled[(i, "r")].coefficient(n=3, k=0)
            rows.append(_row(f"vf_radial_linear_osc{i}",
                             abs(q1 - a) / a, tol["vf_radial_coeff_rel"]))
            rows.append(_row(f"vf_radial_cubic_osc{i}",
                             abs(q3 + a) / a, tol["vf_radial_coeff_rel"]))

    driven, silent = _pairs(spec.coupling)
    if spec.kind == models.VAN_DER_POL:
        for i, j in driven:
            # Panels tiled by (sigma_i power, sigma_j power); the reduced
            # basis has every pair of powers up to m_max.
            panels = coupling.heatmap_layout(rc, i, j, "phi")["panels"]
            powers = range(rc.spec.m_max + 1)
            mat = np.block([[panels[(mi, mj)] for mj in powers] for mi in powers])
            sv = np.linalg.svd(mat, compute_uv=False)
            rows.append(_row(f"factorization_{i}<-{j}",
                             float(sv[0] ** 2 / np.sum(sv ** 2)),
                             tol["factorization_energy"], lower_is_pass=False))

    for i, j in silent:
        rows.append(_row(f"directionality_observable_{i}<-{j}",
                         _sup(nvf.coupling, i, j, ("theta", "r"))
                         / _sup(nvf.coupling, j, i, ("theta", "r")),
                         tol["directionality_ratio"]))
        rows.append(_row(f"directionality_reduced_{i}<-{j}",
                         _sup(rc.series, i, j, ("phi", "sigma"))
                         / _sup(rc.series, j, i, ("phi", "sigma")),
                         tol["directionality_ratio"]))

    if truths is not None:
        for i, j in driven:
            tables = models.analytic_reduced_coupling_terms(spec, i, j)
            worst = 0.0
            main_rel = None
            for eq in ("phi", "sigma"):
                fitted = rc.series[(i, j, eq)]
                for (mi, mj), terms in tables[eq].items():
                    for (own, inp), want in terms.items():
                        if abs(want) < 0.1 * abs(spec.coupling[i, j]):
                            continue
                        own_k = 0 if own == "1" else 1
                        got = fitted.coefficient(mi=mi, mj=mj, own_k=own_k,
                                                 own_trig=own, inp_k=1,
                                                 inp_trig=inp)
                        rel = abs(got - want) / abs(want)
                        worst = max(worst, rel)
                        if eq == "phi" and (mi, mj) == (0, 0) and main_rel is None:
                            main_rel = rel
            rows.append(_row(f"reduced_main_{i}<-{j}", main_rel,
                             tol["reduced_main_rel"]))
            rows.append(_row(f"reduced_table_{i}<-{j}", worst,
                             tol["reduced_table_rel"]))

    report = {"model": spec.kind, "rows": rows,
              "pass": all(r["pass"] for r in rows)}
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
