"""End-to-end orchestration: limit cycle -> Floquet -> reduced sampling ->
transform fits -> network VF fit -> reduced coupling, with JSON artifacts
per stage and a comparison report against analytic oracles when available.

Every stage reads its inputs from the artifact directory and writes its
outputs back there, so stages re-run individually and reproduce the full
pipeline's files byte for byte.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

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

DEFAULT_TOLERANCES = {
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
    model: dict
    out_dir: str
    seed: int = 0
    n_trials: int = 100
    trial_periods: float = 6.0
    radial_span: tuple[float, float] = (0.75, 1.35)
    ic_angles: int = 21
    ic_radii: int = 15
    single_orders: tuple[int, int] = (4, 5)
    transform_orders: tuple[int, int] | None = None
    pair_orders: tuple[int, int, int] = (3, 2, 2)
    reduced_orders: tuple[int, int, int] = (2, 2, 2)
    gamma_harmonics: int | None = None
    grid_points: int = 4000
    grid_seed: int | None = None
    row_budget: int = 60000
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        if self.n_trials < 1:
            raise InvalidConfig("n_trials", "must be at least 1")
        if self.trial_periods <= 0:
            raise InvalidConfig("trial_periods", "must be positive")
        if self.grid_points < 10:
            raise InvalidConfig("grid_points", "must be at least 10")
        if not (0 < self.radial_span[0] < self.radial_span[1]):
            raise InvalidConfig("radial_span", "need 0 < lo < hi")
        for key in ("ic_angles", "ic_radii", "row_budget"):
            if getattr(self, key) < 1:
                raise InvalidConfig(key, "must be at least 1")
        for key in ("single_orders", "transform_orders", "pair_orders",
                    "reduced_orders"):
            try:
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
        orders = self.transform_orders or self.single_orders
        return SingleBasisSpec(*orders)

    @property
    def pair_spec(self) -> PairBasisSpec:
        return PairBasisSpec(*self.pair_orders, "observable")

    @property
    def reduced_spec(self) -> PairBasisSpec:
        return PairBasisSpec(*self.reduced_orders, "reduced")

    @property
    def n_gamma(self) -> int:
        if self.gamma_harmonics is not None:
            return self.gamma_harmonics
        return GAMMA_HARMONICS[self.model["kind"]]

    def to_dict(self) -> dict:
        return {
            "model": self.model, "out_dir": self.out_dir, "seed": self.seed,
            "n_trials": self.n_trials, "trial_periods": self.trial_periods,
            "radial_span": list(self.radial_span),
            "ic_angles": self.ic_angles, "ic_radii": self.ic_radii,
            "single_orders": list(self.single_orders),
            "transform_orders": (None if self.transform_orders is None
                                 else list(self.transform_orders)),
            "pair_orders": list(self.pair_orders),
            "reduced_orders": list(self.reduced_orders),
            "gamma_harmonics": self.gamma_harmonics,
            "grid_points": self.grid_points, "grid_seed": self.grid_seed,
            "row_budget": self.row_budget, "tolerances": self.tolerances,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        d.pop("schema", None)
        for key in ("radial_span", "single_orders", "transform_orders",
                    "pair_orders", "reduced_orders"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        try:
            return cls(**d)
        except TypeError as exc:
            raise InvalidConfig("config", str(exc)) from exc


def default_config(kind: str, out_dir: str, seed: int = 0) -> PipelineConfig:
    return PipelineConfig(model=models.default_spec(kind).to_dict(),
                          out_dir=out_dir, seed=seed, **KIND_DEFAULTS[kind])


def _oscillator_fields(config: PipelineConfig, frames):
    """Per-oscillator polar vector fields of the uncoupled model."""
    spec = config.model_spec
    return [models.polar_uncoupled_vf(spec, i, frames[i])
            for i in range(spec.n_oscillators)]


def _load_cycles(art_dir: str):
    doc = serialize.read_json(os.path.join(art_dir, "limit_cycle.json"), "limit_cycle")
    frames = [models.ObservableFrame.from_dict(o["frame"]) for o in doc["oscillators"]]
    cycles = [LimitCycle.from_dict(o["cycle"]) for o in doc["oscillators"]]
    return frames, cycles, doc


def stage_limit_cycle(config: PipelineConfig) -> dict:
    """Locate each oscillator's cycle, fit its profile, attach the Floquet data."""
    spec = config.model_spec
    os.makedirs(config.out_dir, exist_ok=True)
    oscillators = []
    for i in range(spec.n_oscillators):
        frame = models.estimate_frame(spec, i)
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
    serialize.write_json(os.path.join(config.out_dir, "limit_cycle.json"),
                         doc, "limit_cycle")
    return doc


def stage_transforms(config: PipelineConfig) -> dict:
    """Reduced-coordinate sampling and transform fits, one set per oscillator."""
    frames, cycles, _ = _load_cycles(config.out_dir)
    vfs = _oscillator_fields(config, frames)
    oscillators = []
    for i, cycle in enumerate(cycles):
        ics = transforms.generate_ic_grid(cycle, config.ic_angles, config.ic_radii,
                                          config.radial_span)
        samples = averaging.reduced_coordinates_batch(vfs[i], cycle, ics)
        ts = transforms.fit_transform_set(samples, config.transform_spec)
        # Independent slope route to the Floquet exponent, for the report.
        probe = np.array([0.0, 1.2 * cycle.gamma_at(0.0)])
        horizon = averaging._horizon_steps(cycle, cycle.lam,
                                           float(abs(probe[1] - cycle.gamma_at(0.0))))
        traj = integrate(vfs[i], probe, horizon * cycle.step, cycle.step)
        dev = averaging.observable_deviation(traj, cycle)
        lam_slope = averaging.refine_lambda(dev, 0.0)
        oscillators.append({"transforms": ts.to_dict(),
                            "lambda_slope": lam_slope})
    doc = {"oscillators": oscillators}
    serialize.write_json(os.path.join(config.out_dir, "transforms.json"),
                         doc, "transforms")
    return doc


def stage_simulate(config: PipelineConfig) -> dict:
    """Generate the synthetic trial files for the VF fit."""
    frames, cycles, _ = _load_cycles(config.out_dir)
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
    serialize.write_json(os.path.join(config.out_dir, "network_vf.json"),
                         doc, "network_vf")
    return doc


def stage_reduce(config: PipelineConfig) -> dict:
    """Map the fitted coupling into reduced space and export the heatmaps."""
    _, cycles, _ = _load_cycles(config.out_dir)
    nvf_doc = serialize.read_json(os.path.join(config.out_dir, "network_vf.json"),
                                  "network_vf")
    nvf = vf_reconstruction.NetworkVF.from_dict(nvf_doc)
    tr_doc = serialize.read_json(os.path.join(config.out_dir, "transforms.json"),
                                 "transforms")
    tsets = [TransformSet.from_dict(o["transforms"]) for o in tr_doc["oscillators"]]
    grid = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    stats = [(float(c.gamma_at(grid).min()), float(c.gamma_at(grid).max()))
             for c in cycles]
    grid_seed = config.grid_seed if config.grid_seed is not None else config.seed + 1
    rc = coupling.reduce_network_coupling(
        nvf, tsets, stats, [c.omega for c in cycles], [c.lam for c in cycles],
        config.reduced_spec, count=config.grid_points, seed=grid_seed)
    doc = rc.to_dict()
    serialize.write_json(os.path.join(config.out_dir, "reduced_coupling.json"),
                         doc, "reduced_coupling")

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


def _skip_row(name: str) -> dict:
    return {"name": name, "value": None, "bound": None, "pass": True,
            "note": "oracle unavailable"}


def stage_compare(config: PipelineConfig) -> dict:
    """Tolerance report against analytic oracles and structural checks."""
    spec = config.model_spec
    tol = config.tolerances
    frames, cycles, _ = _load_cycles(config.out_dir)
    vfs = _oscillator_fields(config, frames)
    tr_doc = serialize.read_json(os.path.join(config.out_dir, "transforms.json"),
                                 "transforms")
    tsets = [TransformSet.from_dict(o["transforms"]) for o in tr_doc["oscillators"]]
    lam_slopes = [o["lambda_slope"] for o in tr_doc["oscillators"]]
    nvf = vf_reconstruction.NetworkVF.from_dict(
        serialize.read_json(os.path.join(config.out_dir, "network_vf.json"),
                            "network_vf"))
    rc = coupling.ReducedCoupling.from_dict(
        serialize.read_json(os.path.join(config.out_dir, "reduced_coupling.json"),
                            "reduced_coupling"))

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
            rows.append(_skip_row(f"lambda_monodromy_osc{i}"))
            rows.append(_skip_row(f"lambda_slope_osc{i}"))
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
            if spec.kind == models.RADIAL_ISOCHRON_CLOCK:
                rows.append(_row(f"sigma_transform_osc{i}",
                                 float(np.abs(ts.sigma(TH, R) - gt.sigma_scaled(TH, R)).max()),
                                 tol["sigma_abs"]))
                rows.append(_row(f"phi_transform_osc{i}",
                                 float(np.abs(_wrap(ts.phi(TH, R) - gt.phi(TH, R))).max()),
                                 tol["phi_abs_ric"]))
            else:
                ana = gt.sigma(TH, R)
                fit = ts.sigma(TH, R)
                scale = float(np.sum(fit * ana) / np.sum(ana * ana))
                rel = float(np.abs(fit - scale * ana).max() / np.abs(scale * ana).max())
                rows.append(_row(f"sigma_transform_osc{i}", rel,
                                 tol["sigma_rel_scaled"]))
                rows.append(_row(f"phi_transform_osc{i}",
                                 float(np.abs(_wrap(ts.phi(TH, R) - gt.phi(TH, R))).max()),
                                 tol["phi_abs_canonical"]))
        else:
            rows.append(_skip_row(f"sigma_transform_osc{i}"))
            rows.append(_skip_row(f"phi_transform_osc{i}"))

        # Composition and invariance residuals on the interior of the fitted
        # domain, following the cycle profile so non-circular cycles stay
        # inside the sampled annulus.
        TH, U = np.meshgrid(th, u)
        R = U * cycle.gamma_at(TH)
        P, S = ts.phi(TH, R), ts.sigma(TH, R)
        comp = max(float(np.abs(ts.k_r(P, S) - R).max()),
                   float(np.abs(_wrap(ts.k_theta(P, S) - TH)).max()))
        rows.append(_row(f"composition_osc{i}", comp, tol["composition_abs"]))

        f = vfs[i](np.stack([TH, R], axis=-1))
        _, dpt, dpr = ts.phi_grad(TH, R)
        sig, dst, dsr = ts.sigma_grad(TH, R)
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
    manifest = serialize.read_json(os.path.join(trials_dir, "manifest.json"), "trials")
    trial = serialize.read_trial_csv(os.path.join(trials_dir, manifest["files"][0]))
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

    eps = np.asarray(spec.coupling)
    if spec.kind == models.VAN_DER_POL:
        for i in range(spec.n_oscillators):
            for j in range(spec.n_oscillators):
                if i == j or eps[i, j] == 0:
                    continue
                # Panels tiled by (sigma_i power, sigma_j power); absent
                # amplitude pairs are zero blocks.
                panels = coupling.heatmap_layout(rc, i, j, "phi")["panels"]
                zero = np.zeros_like(panels[(0, 0)])
                mat = np.block([[panels.get((mi, mj), zero)
                                 for mj in range(max(p[1] for p in panels) + 1)]
                                for mi in range(max(p[0] for p in panels) + 1)])
                sv = np.linalg.svd(mat, compute_uv=False)
                rows.append(_row(f"factorization_{i}<-{j}",
                                 float(sv[0] ** 2 / np.sum(sv ** 2)),
                                 tol["factorization_energy"], lower_is_pass=False))

    for i in range(spec.n_oscillators):
        for j in range(spec.n_oscillators):
            if i == j or eps[i, j] != 0 or eps[j, i] == 0:
                continue
            # (i, j) is the silent direction of a uni-directional pair.
            def sup_obs(a, b):
                return max(float(np.abs(nvf.coupling[(a, b, c)].coefficients).max())
                           for c in ("theta", "r"))

            def sup_red(a, b):
                return max(float(np.abs(rc.series[(a, b, e)].coefficients).max())
                           for e in ("phi", "sigma"))

            rows.append(_row(f"directionality_observable_{i}<-{j}",
                             sup_obs(i, j) / sup_obs(j, i),
                             tol["directionality_ratio"]))
            rows.append(_row(f"directionality_reduced_{i}<-{j}",
                             sup_red(i, j) / sup_red(j, i),
                             tol["directionality_ratio"]))

    if truths is not None:
        for i in range(spec.n_oscillators):
            for j in range(spec.n_oscillators):
                if i == j or eps[i, j] == 0:
                    continue
                tables = models.analytic_reduced_coupling_terms(spec, i, j)
                worst = 0.0
                main_rel = None
                for eq in ("phi", "sigma"):
                    fitted = rc.series[(i, j, eq)]
                    for (mi, mj), terms in tables[eq].items():
                        for (own, inp), want in terms.items():
                            if abs(want) < 0.1 * abs(eps[i, j]):
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
    serialize.write_json(os.path.join(config.out_dir, "report.json"),
                         report, "report")
    return report


def write_config(config: PipelineConfig):
    """Record the effective configuration as config.json in the output directory."""
    os.makedirs(config.out_dir, exist_ok=True)
    serialize.write_json(os.path.join(config.out_dir, "config.json"),
                         config.to_dict(), "config")


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage in order and return the comparison report."""
    write_config(config)
    timings = {}
    for name, stage in (("limit_cycle", stage_limit_cycle),
                        ("transforms", stage_transforms),
                        ("simulate", stage_simulate),
                        ("vf", stage_vf),
                        ("reduce", stage_reduce),
                        ("compare", stage_compare)):
        t0 = time.time()
        result = stage(config)
        timings[name] = time.time() - t0
    report = result
    report["timings"] = timings
    return report
