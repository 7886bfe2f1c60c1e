"""Benchmark oscillator models with directed coupling and analytic ground truth.

Four kinds are supported: the radial isochron clock and the canonical
(Stuart-Landau) oscillator, which are natively polar and have closed-form
phase-amplitude transformations, and the van der Pol and Wilson-Cowan
oscillators, which are Cartesian with non-circular cycles and no analytic
transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ode
from .errors import (
    NoAnalyticForm,
    NoConvergence,
    NonPositiveRadius,
    UnknownKind,
)

__all__ = [
    "ModelSpec",
    "ObservableFrame",
    "AnalyticGroundTruth",
    "default_spec",
    "eval_model_vf",
    "network_vf",
    "uncoupled_vf",
    "uncoupled_jacobian",
    "native_coords",
    "estimate_frame",
    "polar_uncoupled_vf",
    "polar_uncoupled_jacobian",
    "cart_to_polar",
    "polar_to_cart",
    "wc_equilibrium",
    "analytic_ground_truth",
    "analytic_reduced_coupling_terms",
    "sigmoid",
]

RADIAL_ISOCHRON_CLOCK = "radial_isochron_clock"
CANONICAL = "canonical"
VAN_DER_POL = "van_der_pol"
WILSON_COWAN = "wilson_cowan"

_POLAR_KINDS = (RADIAL_ISOCHRON_CLOCK, CANONICAL)
_CARTESIAN_KINDS = (VAN_DER_POL, WILSON_COWAN)
_ALL_KINDS = _POLAR_KINDS + _CARTESIAN_KINDS


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class ModelSpec:
    """Model kind, per-oscillator parameters and directed coupling matrix.

    ``params`` maps a parameter name to one value per oscillator, e.g.
    ``{"a": (1.0, 0.7)}``.  ``coupling[i, j]`` is the strength of the input
    from oscillator j into oscillator i.
    """

    kind: str
    params: dict[str, tuple[float, ...]]
    coupling: np.ndarray
    _wc_eq: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise UnknownKind(f"unknown model kind {self.kind!r}")
        self.coupling = np.asarray(self.coupling, dtype=float)
        n = self.n_oscillators
        if self.coupling.shape != (n, n):
            raise ValueError("coupling matrix shape must match oscillator count")
        if np.any(np.diag(self.coupling) != 0.0):
            raise ValueError("self-coupling must be zero")
        if self.kind == RADIAL_ISOCHRON_CLOCK and np.any(np.asarray(self.params["a"]) <= 0):
            raise ValueError("radial isochron clock requires a > 0")
        if self.kind == CANONICAL and np.any(np.asarray(self.params["alpha"]) <= 0):
            raise ValueError("canonical model requires alpha > 0")

    @property
    def n_oscillators(self) -> int:
        return len(next(iter(self.params.values())))

    def param(self, name: str, i: int) -> float:
        return float(self.params[name][i])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": {k: list(map(float, v)) for k, v in self.params.items()},
            "coupling": self.coupling.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(kind=d["kind"],
                   params={k: tuple(v) for k, v in d["params"].items()},
                   coupling=np.asarray(d["coupling"], dtype=float))


def default_spec(kind: str) -> ModelSpec:
    """Two uni-directionally coupled oscillators; oscillator 0 drives 1."""
    if kind == RADIAL_ISOCHRON_CLOCK:
        # Simulation parameters chosen for this toolkit (a=1 for the driver
        # makes the amplitude-scaling convention the identity).
        eps = np.array([[0.0, 0.0], [0.3, 0.0]])
        return ModelSpec(kind, {"a": (1.0, 0.7)}, eps)
    if kind == CANONICAL:
        eps = np.array([[0.0, 0.0], [0.3, 0.0]])
        return ModelSpec(kind, {"a": (1.2, 1.0), "alpha": (1.5, 2.0)}, eps)
    if kind == VAN_DER_POL:
        eps = np.array([[0.0, 0.0], [0.1, 0.0]])
        return ModelSpec(kind, {"mu": (0.3, 0.5)}, eps)
    if kind == WILSON_COWAN:
        eps = np.array([[0.0, 0.0], [1.0, 0.0]])
        return ModelSpec(kind, {
            "a": (10.0, 10.0), "b": (10.0, 10.0), "c": (10.0, 10.0),
            "d": (-2.0, -2.0), "rho_x": (0.0, 0.0), "rho_y": (-6.75, -7.0),
        }, eps)
    raise UnknownKind(f"unknown model kind {kind!r}")


def native_coords(kind: str) -> str:
    if kind in _POLAR_KINDS:
        return "polar"
    if kind in _CARTESIAN_KINDS:
        return "cartesian"
    raise UnknownKind(f"unknown model kind {kind!r}")


def wc_equilibrium(spec: ModelSpec, i: int) -> tuple[float, float]:
    """Fixed point of the uncoupled Wilson-Cowan oscillator, damped Newton."""
    if spec.kind != WILSON_COWAN:
        raise UnknownKind("wc_equilibrium requires a Wilson-Cowan spec")
    a, b = spec.param("a", i), spec.param("b", i)
    c, d = spec.param("c", i), spec.param("d", i)
    rx, ry = spec.param("rho_x", i), spec.param("rho_y", i)

    def resid(p):
        x, y = p
        return np.array([-x + sigmoid(rx + a * x - b * y),
                         -y + sigmoid(ry + c * x - d * y)])

    jac = uncoupled_jacobian(spec, i)
    p = np.array([0.5, 0.5])
    for _ in range(200):
        f = resid(p)
        if np.max(np.abs(f)) < 1e-13:
            return float(p[0]), float(p[1])
        step = np.linalg.solve(jac(p), -f)
        lam = 1.0
        f_norm = np.linalg.norm(f)
        while lam > 1e-6 and np.linalg.norm(resid(p + lam * step)) > f_norm:
            lam *= 0.5
        p = p + lam * step
    raise NoConvergence("Wilson-Cowan equilibrium did not converge")


def _wc_equilibria(spec: ModelSpec) -> np.ndarray:
    if spec._wc_eq is None:
        spec._wc_eq = [wc_equilibrium(spec, i) for i in range(spec.n_oscillators)]
    return np.asarray(spec._wc_eq)


def eval_model_vf(spec: ModelSpec, states) -> np.ndarray:
    """Model derivatives in native coordinates, coupling included.

    ``states`` has shape ``(..., N, 2)`` with the trailing pair being
    (theta, r) for polar kinds and (x, y) for Cartesian kinds.
    """
    states = np.asarray(states, dtype=float)
    eps = spec.coupling
    if spec.kind in _POLAR_KINDS:
        theta = states[..., 0]
        r = states[..., 1]
        if np.any(r <= 0):
            raise NonPositiveRadius("polar model evaluated at r <= 0")
        if spec.kind == RADIAL_ISOCHRON_CLOCK:
            a = np.asarray(spec.params["a"])
            rs = r * np.sin(theta)                      # r_j sin(theta_j)
            drive = rs @ eps.T                          # sum_j eps_ij r_j sin(theta_j)
            dtheta = 1.0 + drive * np.cos(theta) / r
            dr = a * r * (1.0 - r ** 2) + drive * np.sin(theta)
        else:
            a = np.asarray(spec.params["a"])
            alpha = np.asarray(spec.params["alpha"])
            rc = r * np.cos(theta)                      # r_j cos(theta_j)
            drive = rc @ eps.T
            dtheta = 1.0 + alpha * a * r ** 2 - drive * np.sin(theta) / r
            dr = alpha * r * (1.0 - r ** 2) + drive * np.cos(theta)
        return np.stack([dtheta, dr], axis=-1)
    if spec.kind == VAN_DER_POL:
        mu = np.asarray(spec.params["mu"])
        x = states[..., 0]
        y = states[..., 1]
        drive = x @ eps.T
        dx = y
        dy = mu * (1.0 - x ** 2) * y - x + drive
        return np.stack([dx, dy], axis=-1)
    if spec.kind == WILSON_COWAN:
        a = np.asarray(spec.params["a"])
        b = np.asarray(spec.params["b"])
        c = np.asarray(spec.params["c"])
        d = np.asarray(spec.params["d"])
        rx = np.asarray(spec.params["rho_x"])
        ry = np.asarray(spec.params["rho_y"])
        x0 = _wc_equilibria(spec)[:, 0]
        x = states[..., 0]
        y = states[..., 1]
        drive = (x - x0) @ eps.T
        dx = -x + sigmoid(rx + a * x - b * y)
        dy = -y + sigmoid(ry + c * x - d * y + drive)
        return np.stack([dx, dy], axis=-1)
    raise UnknownKind(f"unknown model kind {spec.kind!r}")


def network_vf(spec: ModelSpec):
    """Vector field callable over the full network state ``(..., N, 2)``."""
    return lambda states: eval_model_vf(spec, states)


def uncoupled_vf(spec: ModelSpec, i: int):
    """Planar vector field of oscillator ``i`` with coupling removed."""
    sub = ModelSpec(spec.kind,
                    {k: (v[i],) for k, v in spec.params.items()},
                    np.zeros((1, 1)))

    def vf(state):
        state = np.asarray(state, dtype=float)
        return eval_model_vf(sub, state[..., None, :])[..., 0, :]

    return vf


def uncoupled_jacobian(spec: ModelSpec, i: int):
    """Analytic 2x2 Jacobian of the uncoupled oscillator, native coordinates."""
    kind = spec.kind
    if kind == RADIAL_ISOCHRON_CLOCK:
        a = spec.param("a", i)

        def jac(state):
            r = state[1]
            return np.array([[0.0, 0.0], [0.0, a * (1.0 - 3.0 * r ** 2)]])

        return jac
    if kind == CANONICAL:
        a = spec.param("a", i)
        alpha = spec.param("alpha", i)

        def jac(state):
            r = state[1]
            return np.array([[0.0, 2.0 * alpha * a * r],
                             [0.0, alpha * (1.0 - 3.0 * r ** 2)]])

        return jac
    if kind == VAN_DER_POL:
        mu = spec.param("mu", i)

        def jac(state):
            x, y = state
            return np.array([[0.0, 1.0],
                             [-2.0 * mu * x * y - 1.0, mu * (1.0 - x ** 2)]])

        return jac
    if kind == WILSON_COWAN:
        a, b = spec.param("a", i), spec.param("b", i)
        c, d = spec.param("c", i), spec.param("d", i)
        rx, ry = spec.param("rho_x", i), spec.param("rho_y", i)

        def jac(state):
            x, y = state
            su = sigmoid(rx + a * x - b * y)
            sv = sigmoid(ry + c * x - d * y)
            du, dv = su * (1 - su), sv * (1 - sv)
            return np.array([[-1 + a * du, -b * du], [c * dv, -1 - d * dv]])

        return jac
    raise UnknownKind(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class ObservableFrame:
    """Center and rotation sense defining polar observable coordinates.

    ``orientation`` is +1 when the cycle runs counterclockwise about the
    center in native coordinates and -1 otherwise; the observable angle is
    ``orientation * atan2(y - cy, x - cx)`` so that it always increases along
    the cycle.
    """

    center: tuple[float, float] = (0.0, 0.0)
    orientation: float = 1.0

    def to_dict(self) -> dict:
        return {"center": [float(self.center[0]), float(self.center[1])],
                "orientation": float(self.orientation)}

    @classmethod
    def from_dict(cls, d: dict) -> "ObservableFrame":
        return cls(center=(d["center"][0], d["center"][1]),
                   orientation=d["orientation"])


def cart_to_polar(xy: np.ndarray, frame: ObservableFrame) -> np.ndarray:
    dx = xy[..., 0] - frame.center[0]
    dy = xy[..., 1] - frame.center[1]
    r = np.hypot(dx, dy)
    theta = frame.orientation * np.arctan2(dy, dx)
    return np.stack([theta, r], axis=-1)


def polar_to_cart(tr: np.ndarray, frame: ObservableFrame) -> np.ndarray:
    ang = frame.orientation * tr[..., 0]
    x = frame.center[0] + tr[..., 1] * np.cos(ang)
    y = frame.center[1] + tr[..., 1] * np.sin(ang)
    return np.stack([x, y], axis=-1)


def _settle_seed(spec: ModelSpec, i: int) -> np.ndarray:
    if spec.kind == VAN_DER_POL:
        return np.array([1.0, 0.0])
    if spec.kind == WILSON_COWAN:
        x0, y0 = wc_equilibrium(spec, i)
        return np.array([x0 + 0.05, y0])
    return np.array([0.0, 1.2])


def estimate_frame(spec: ModelSpec, i: int) -> ObservableFrame:
    """Observable frame for oscillator ``i``: cycle centroid and rotation sense.

    Polar kinds use the identity frame; Cartesian kinds settle the uncoupled
    oscillator onto its cycle (200 time units at step 0.005) and center polar
    coordinates at the centroid of an integer number of revolutions.
    """
    if spec.kind in _POLAR_KINDS:
        return ObservableFrame()
    vf = uncoupled_vf(spec, i)
    traj = ode.integrate(vf, _settle_seed(spec, i), 200.0, 0.005)
    tail = traj.states[traj.states.shape[0] // 2:]
    center = tail.mean(axis=0)
    rel = tail - center
    cross = rel[:-1, 0] * rel[1:, 1] - rel[:-1, 1] * rel[1:, 0]
    orientation = 1.0 if cross.sum() >= 0 else -1.0
    # Refine the centroid over an integer number of revolutions.
    ang = np.unwrap(orientation * np.arctan2(rel[:, 1], rel[:, 0]))
    total = ang[-1] - ang[0]
    if total < 4.0 * np.pi:
        raise NoConvergence("settled trajectory spans fewer than two revolutions")
    n_rev = int(total // (2.0 * np.pi))
    stop = np.searchsorted(ang, ang[0] + n_rev * 2.0 * np.pi)
    center = tail[:stop].mean(axis=0)
    return ObservableFrame(center=(float(center[0]), float(center[1])),
                           orientation=orientation)


def polar_uncoupled_vf(spec: ModelSpec, i: int, frame: ObservableFrame | None = None):
    """Uncoupled vector field in observable polar coordinates ``(theta, r)``."""
    if spec.kind in _POLAR_KINDS:
        return uncoupled_vf(spec, i)
    if frame is None:
        raise ValueError("Cartesian kinds require an observable frame")
    cart = uncoupled_vf(spec, i)
    s = frame.orientation
    cx, cy = frame.center

    def vf(state):
        state = np.asarray(state, dtype=float)
        theta = state[..., 0]
        r = state[..., 1]
        ang = s * theta
        ca, sa = np.cos(ang), np.sin(ang)
        xy = np.stack([cx + r * ca, cy + r * sa], axis=-1)
        f = cart(xy)
        dr = f[..., 0] * ca + f[..., 1] * sa
        dtheta = s * (f[..., 1] * ca - f[..., 0] * sa) / r
        return np.stack([dtheta, dr], axis=-1)

    return vf


def polar_uncoupled_jacobian(spec: ModelSpec, i: int,
                             frame: ObservableFrame | None = None):
    """Jacobian of the polar uncoupled vector field.

    Analytic for natively polar kinds; central finite differences (step 1e-6)
    of the converted field otherwise.
    """
    if spec.kind in _POLAR_KINDS:
        return uncoupled_jacobian(spec, i)
    vf = polar_uncoupled_vf(spec, i, frame)
    h = 1e-6

    def jac(state):
        state = np.asarray(state, dtype=float)
        out = np.empty((2, 2))
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = h
            out[:, k] = (vf(state + dp) - vf(state - dp)) / (2.0 * h)
        return out

    return jac


@dataclass(frozen=True)
class AnalyticGroundTruth:
    """Closed-form transformations for the two analytically solvable kinds.

    ``sigma`` and the forward maps use the raw analytic amplitude; the
    toolkit's estimated amplitude carries the extra factor ``sigma_scale``
    (the leading radial response coefficient), so comparisons against fitted
    quantities should multiply ``sigma`` by ``sigma_scale``.
    """

    kind: str
    lam: float
    omega: float
    sigma_scale: float
    _phi: object
    _sigma: object
    _k_theta: object
    _k_r: object

    def phi(self, theta, r):
        return self._phi(np.asarray(theta, dtype=float), np.asarray(r, dtype=float))

    def sigma(self, theta, r):
        return self._sigma(np.asarray(theta, dtype=float), np.asarray(r, dtype=float))

    def sigma_scaled(self, theta, r):
        return self.sigma_scale * self.sigma(theta, r)

    def k_theta(self, phi, sigma):
        return self._k_theta(np.asarray(phi, dtype=float), np.asarray(sigma, dtype=float))

    def k_r(self, phi, sigma):
        return self._k_r(np.asarray(phi, dtype=float), np.asarray(sigma, dtype=float))


def analytic_ground_truth(spec: ModelSpec, i: int) -> AnalyticGroundTruth:
    if spec.kind == RADIAL_ISOCHRON_CLOCK:
        a = spec.param("a", i)
        return AnalyticGroundTruth(
            kind=spec.kind, lam=-2.0 * a, omega=1.0, sigma_scale=a,
            _phi=lambda th, r: th + 0.0 * r,
            _sigma=lambda th, r: (r ** 2 - 1.0) / (2.0 * a * r ** 2) + 0.0 * th,
            _k_theta=lambda ph, s: ph + 0.0 * s,
            _k_r=lambda ph, s: 1.0 / np.sqrt(1.0 - 2.0 * a * s) + 0.0 * ph,
        )
    if spec.kind == CANONICAL:
        a = spec.param("a", i)
        alpha = spec.param("alpha", i)
        return AnalyticGroundTruth(
            kind=spec.kind, lam=-2.0 * alpha, omega=1.0 + alpha * a, sigma_scale=alpha,
            _phi=lambda th, r: th + a * np.log(r),
            _sigma=lambda th, r: (1.0 - 1.0 / r ** 2) / (2.0 * alpha) + 0.0 * th,
            _k_theta=lambda ph, s: ph + 0.5 * a * np.log(1.0 - 2.0 * alpha * s),
            _k_r=lambda ph, s: 1.0 / np.sqrt(1.0 - 2.0 * alpha * s) + 0.0 * ph,
        )
    raise NoAnalyticForm(f"no analytic transformation for kind {spec.kind!r}")


def analytic_reduced_coupling_terms(spec: ModelSpec, i: int, j: int) -> dict:
    """Closed-form reduced-space coupling series of the drive j -> i.

    Returns, per equation ("phi" or "sigma"), a mapping
    ``(n_i, n_j) -> {(own, inp): coefficient}`` of the Fourier-Taylor terms up
    to amplitude order 2, where ``own`` in {"1", "cos", "sin"} refers to the
    driven oscillator's phase factor and ``inp`` in {"cos", "sin"} to the
    driver's.  Amplitudes use the toolkit's scaled convention, in which the
    series become parameter-light (decay constants absorbed).
    """
    eps = float(spec.coupling[i, j])
    if spec.kind == RADIAL_ISOCHRON_CLOCK:
        cs = ("cos", "sin")
        ss = ("sin", "sin")
        phi = {
            (0, 0): {cs: 1.0}, (1, 0): {cs: -1.0}, (0, 1): {cs: 1.0},
            (2, 0): {cs: -0.5}, (1, 1): {cs: -1.0}, (0, 2): {cs: 1.5},
        }
        sig = {
            (0, 0): {ss: 1.0}, (1, 0): {ss: -3.0}, (0, 1): {ss: 1.0},
            (2, 0): {ss: 1.5}, (1, 1): {ss: -3.0}, (0, 2): {ss: 1.5},
        }
    elif spec.kind == CANONICAL:
        ai = spec.param("a", i)
        aj = spec.param("a", j)
        cc = ("cos", "cos")
        sc = ("sin", "cos")
        cs = ("cos", "sin")
        ss = ("sin", "sin")
        sig = {
            (0, 0): {cc: 1.0},
            (1, 0): {sc: ai, cc: -3.0},
            (0, 1): {cs: aj, cc: 1.0},
            (2, 0): {cc: -(ai ** 2 - 3.0) / 2.0, sc: -2.0 * ai},
            (1, 1): {ss: ai * aj, sc: ai, cs: -3.0 * aj, cc: -3.0},
            (0, 2): {cc: -(aj ** 2 - 3.0) / 2.0, cs: 2.0 * aj},
        }
        phi = {
            (0, 0): {sc: -1.0, cc: ai},
            (1, 0): {sc: ai ** 2 + 1.0},
            (0, 1): {cs: ai * aj, cc: ai, ss: -aj, sc: -1.0},
            (2, 0): {cc: -(ai ** 3 + ai) / 2.0, sc: (ai ** 2 + 1.0) / 2.0},
            (1, 1): {ss: ai ** 2 * aj + aj, sc: ai ** 2 + 1.0},
            (0, 2): {cc: -ai * (aj ** 2 - 3.0) / 2.0, sc: (aj ** 2 - 3.0) / 2.0,
                     cs: 2.0 * ai * aj, ss: -2.0 * aj},
        }
    else:
        raise NoAnalyticForm(f"no analytic reduced coupling for kind {spec.kind!r}")
    scale = lambda table: {
        amp: {key: eps * val for key, val in terms.items()}
        for amp, terms in table.items()
    }
    return {"phi": scale(phi), "sigma": scale(sig)}
