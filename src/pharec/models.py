"""Benchmark oscillator models with directed coupling and analytic ground truth.

Four kinds are supported: the radial isochron clock and the canonical
(Stuart-Landau) oscillator, which are natively polar and have closed-form
phase-amplitude transformations, and the van der Pol and Wilson-Cowan
oscillators, which are Cartesian with non-circular cycles and no analytic
transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ode
from .errors import (
    NoAnalyticForm,
    NoConvergence,
    NonPositiveRadius,
    ShapeMismatch,
    UnknownKind,
)
from .limit_cycle import finite_pair, is_finite_number

__all__ = [
    "ModelSpec",
    "ObservableFrame",
    "AnalyticGroundTruth",
    "default_spec",
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
# Parameter names of each kind; every parameter takes one value per oscillator.
_PARAM_NAMES = {
    RADIAL_ISOCHRON_CLOCK: ("a",),
    CANONICAL: ("a", "alpha"),
    VAN_DER_POL: ("mu",),
    WILSON_COWAN: ("a", "b", "c", "d", "rho_x", "rho_y"),
}


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class ModelSpec:
    """Model kind, per-oscillator parameters and directed coupling matrix.

    ``params`` maps each of the kind's parameter names to one value per
    oscillator, e.g. ``{"a": (1.0, 0.7)}``.  ``coupling[i, j]`` is the
    strength of the input from oscillator j into oscillator i.
    """

    kind: str
    params: dict[str, tuple[float, ...]]
    coupling: np.ndarray

    def __post_init__(self):
        if self.kind not in _PARAM_NAMES:
            raise UnknownKind(f"unknown model kind {self.kind!r}")
        self.coupling = np.asarray(self.coupling, dtype=float)
        n = self.coupling.shape[0] if self.coupling.ndim == 2 else -1
        if self.coupling.shape != (n, n):
            raise ValueError("coupling matrix must be square")
        names = _PARAM_NAMES[self.kind]
        if sorted(self.params) != sorted(names) or any(
                a.shape != (n,) or a.dtype.kind not in "iuf" or not np.isfinite(a).all()
                for a in map(np.asarray, self.params.values())):
            raise ValueError(f"{self.kind} takes parameters {', '.join(names)}, "
                             f"each with one finite number per oscillator ({n}); "
                             f"got {self.params!r}")
        if not np.isfinite(self.coupling).all():
            raise ValueError(f"coupling matrix must be finite; got {self.coupling.tolist()!r}")
        if np.any(np.diag(self.coupling) != 0.0):
            raise ValueError("self-coupling must be zero")
        if self.kind == RADIAL_ISOCHRON_CLOCK and np.any(np.asarray(self.params["a"]) <= 0):
            raise ValueError("radial isochron clock requires a > 0")
        if self.kind == CANONICAL and np.any(np.asarray(self.params["alpha"]) <= 0):
            raise ValueError("canonical model requires alpha > 0")

    @property
    def n_oscillators(self) -> int:
        return self.coupling.shape[0]

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
        extra = sorted(set(d) - {"kind", "params", "coupling"})
        if extra:
            raise ValueError(f"unknown model keys: {', '.join(map(str, extra))}")
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
    resid = uncoupled_vf(spec, i)
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


def _field(kind: str, p: dict, u, v, drive=None):
    """(du/dt, dv/dt) of one kind's equations plus the coupling input ``drive``.

    ``(u, v)`` is (theta, r) for polar kinds and (x, y) for Cartesian kinds;
    ``p`` maps parameter names to scalars or to arrays over oscillators, and
    ``drive=None`` means uncoupled: a polar kind then skips its drive terms (sin,
    cos, division by r; the clock's θ-rate is the scalar 1.0), whose zeros
    change no bit: x + (±0.0) = x for x ≠ 0, +0.0 + (±0.0) = +0.0.
    Squares are written as products: NumPy scalars square through C ``pow``,
    arrays through ``x * x``, and the two can differ in the last bit.

    Every Jacobian is the complex step of this formula, so it must stay
    complex-analytic in ``(u, v)``: no ``abs``, no cast to float and no branch
    on values other than the radius check.  That check still fires on a
    complex probe, whose unperturbed entries carry the real radius.
    """
    if kind in _POLAR_KINDS:
        if np.count_nonzero(v <= 0):
            raise NonPositiveRadius("polar model evaluated at r <= 0")
        if kind == RADIAL_ISOCHRON_CLOCK:
            du, dv = 1.0, p["a"] * v * (1.0 - v * v)
            if drive is None:
                return du, dv
            return du + drive * np.cos(u) / v, dv + drive * np.sin(u)
        du, dv = 1.0 + p["alpha"] * p["a"] * (v * v), p["alpha"] * v * (1.0 - v * v)
        if drive is None:
            return du, dv
        return du - drive * np.sin(u) / v, dv + drive * np.cos(u)
    drive = 0.0 if drive is None else drive
    if kind == VAN_DER_POL:
        return v, p["mu"] * (1.0 - u * u) * v - u + drive
    return (-u + sigmoid(p["rho_x"] + p["a"] * u - p["b"] * v),
            -v + sigmoid(p["rho_y"] + p["c"] * u - p["d"] * v + drive))


def network_vf(spec: ModelSpec):
    """Vector field callable over the full network state ``(..., N, 2)``.

    The trailing pair is (theta, r) for polar kinds and (x, y) for Cartesian
    kinds.  Oscillator i receives ``sum_j coupling[i, j] * s_j``, where the
    signal s_j is r sin(theta) (radial isochron clock), r cos(theta)
    (canonical), x (van der Pol) or x minus its equilibrium (Wilson-Cowan).
    An all-zero coupling matrix computes no signal and passes no drive, which
    changes no bit (see ``_field``) except at the exact van der Pol origin, an
    equilibrium, where a -0.0 component may come out +0.0.  Only the coupled
    form checks the state's shape (ShapeMismatch), so the zero-coupling
    settle of ``estimate_frame`` pays nothing for it.
    """
    kind, eps = spec.kind, spec.coupling
    p = {k: np.asarray(v) for k, v in spec.params.items()}
    if not eps.any():
        def uncoupled(states):
            states = np.asarray(states, dtype=float)
            return _stacked(states, *_field(kind, p, states[..., 0], states[..., 1]))

        return uncoupled
    if kind == WILSON_COWAN:
        x0 = np.asarray([wc_equilibrium(spec, i)
                         for i in range(spec.n_oscillators)])[:, 0]

    shape = (spec.n_oscillators, 2)

    def vf(states):
        states = np.asarray(states, dtype=float)
        if states.shape[-2:] != shape:
            raise ShapeMismatch(f"network states must have shape (..., {shape[0]}, 2), "
                                f"got {states.shape}")
        u, v = states[..., 0], states[..., 1]
        if kind == RADIAL_ISOCHRON_CLOCK:
            signal = v * np.sin(u)
        elif kind == CANONICAL:
            signal = v * np.cos(u)
        elif kind == VAN_DER_POL:
            signal = u
        else:
            signal = u - x0
        return _stacked(states, *_field(kind, p, u, v, signal @ eps.T))

    return vf


def uncoupled_vf(spec: ModelSpec, i: int):
    """Planar vector field of oscillator ``i`` with coupling removed."""
    return _planar_vf(_uncoupled_field(spec, i))


def uncoupled_jacobian(spec: ModelSpec, i: int):
    """2x2 Jacobian of ``uncoupled_vf(spec, i)``: the complex step of ``_field``."""
    return _complex_step_jacobian(_uncoupled_field(spec, i))


def _uncoupled_field(spec: ModelSpec, i: int):
    """``(u, v) -> (du/dt, dv/dt)`` of oscillator ``i`` with coupling removed."""
    kind = spec.kind
    p = {k: spec.param(k, i) for k in spec.params}
    return lambda u, v: _field(kind, p, u, v)


def _planar_vf(field):
    """``field`` as a vector field over states ``(..., 2)``.  One state goes
    through ``field`` as two Python floats, which skips the fixed cost of 0-d
    array operations and gives their bits (IEEE arithmetic, the same NumPy
    loops for ``cos``/``sin``/``exp``), but overflows without a warning."""
    def vf(state):
        state = np.asarray(state, dtype=float)
        if state.ndim == 1:
            out = np.empty(2)
            out[0], out[1] = field(*state.tolist())
            return out
        return _stacked(state, *field(state[..., 0], state[..., 1]))

    return vf


def _stacked(state: np.ndarray, du, dv) -> np.ndarray:
    """``np.stack((du, dv), axis=-1)`` of a float field at ``state`` (a scalar
    component broadcast), in a fresh float64 array per call, since
    ``ode.rk4_step`` holds k1 to k4 at once; the bits are ``np.stack``'s."""
    out = np.empty(state.shape)
    out[..., 0] = du
    out[..., 1] = dv
    return out


_COMPLEX_STEP = 1e-30
_PROBES = 1j * _COMPLEX_STEP * np.eye(2)


def _complex_step_jacobian(field):
    """2x2 Jacobian of a planar ``field`` by the complex step (Squire & Trapp 1998).

    One call on the probes ``state + i*h*e_k`` gives ``J[:, k] = Im f / h``.
    Nothing is subtracted, so J is exact to rounding for any h this small.
    """
    def jac(state):
        probe = np.asarray(state, dtype=float) + _PROBES
        out = np.empty((2, 2), dtype=complex)
        out[0], out[1] = field(probe[:, 0], probe[:, 1])
        return out.imag / _COMPLEX_STEP

    return jac


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
        orientation = d["orientation"]
        if not (is_finite_number(orientation) and abs(orientation) == 1):
            raise ValueError(f"orientation must be 1 or -1, not {orientation!r}")
        return cls(center=finite_pair(d["center"], "center"), orientation=float(orientation))


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
    """Start of a Cartesian oscillator's settling run."""
    if spec.kind == VAN_DER_POL:
        return np.array([1.0, 0.0])
    x0, y0 = wc_equilibrium(spec, i)
    return np.array([x0 + 0.05, y0])


def estimate_frame(spec: ModelSpec) -> list[ObservableFrame]:
    """Observable frame of every oscillator: cycle centroid and rotation sense.

    Polar kinds use the identity frame; Cartesian kinds settle all uncoupled
    oscillators onto their cycles in one lockstep run (200 time units at step
    0.005) and center each oscillator's polar coordinates at the centroid of
    an integer number of its revolutions.
    """
    n = spec.n_oscillators
    if spec.kind in _POLAR_KINDS:
        return [ObservableFrame()] * n
    vf = network_vf(replace(spec, coupling=np.zeros((n, n))))
    seeds = np.stack([_settle_seed(spec, i) for i in range(n)])
    states = ode.integrate(vf, seeds, 200.0, 0.005).states
    frames = []
    for i in range(n):
        # A contiguous copy, so the sums take a single-oscillator run's order.
        tail = np.ascontiguousarray(states[states.shape[0] // 2:, i])
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
        frames.append(ObservableFrame(center=(float(center[0]), float(center[1])),
                                      orientation=orientation))
    return frames


def _polar_field(spec: ModelSpec, i: int, frame: ObservableFrame | None):
    """``(theta, r) -> (dtheta/dt, dr/dt)`` of oscillator ``i``, uncoupled, in ``frame``."""
    native = _uncoupled_field(spec, i)
    if spec.kind in _POLAR_KINDS:
        return native
    if frame is None:
        raise ValueError("Cartesian kinds require an observable frame")
    s = frame.orientation
    cx, cy = frame.center

    def field(theta, r):
        ang = s * theta
        ca, sa = np.cos(ang), np.sin(ang)
        fx, fy = native(cx + r * ca, cy + r * sa)
        return s * (fy * ca - fx * sa) / r, fx * ca + fy * sa

    return field


def polar_uncoupled_vf(spec: ModelSpec, i: int, frame: ObservableFrame | None = None):
    """Uncoupled vector field in observable polar coordinates ``(theta, r)``."""
    return _planar_vf(_polar_field(spec, i, frame))


def polar_uncoupled_jacobian(spec: ModelSpec, i: int,
                             frame: ObservableFrame | None = None):
    """2x2 Jacobian of ``polar_uncoupled_vf``: the complex step of the same field,
    so on Cartesian kinds the frame map's chain rule is exact to rounding too."""
    return _complex_step_jacobian(_polar_field(spec, i, frame))


@dataclass(frozen=True)
class AnalyticGroundTruth:
    """Closed-form transformations for the two analytically solvable kinds.

    ``sigma`` and the forward maps use the raw analytic amplitude; the
    toolkit's estimated amplitude carries the extra factor ``sigma_scale``
    (the leading radial response coefficient), so comparisons against fitted
    quantities should multiply ``sigma`` by ``sigma_scale``.
    """

    lam: float
    omega: float
    sigma_scale: float
    phi: object               # (theta, r) -> phase
    sigma: object             # (theta, r) -> raw amplitude
    k_theta: object           # (phi, sigma) -> theta
    k_r: object               # (phi, sigma) -> r


def analytic_ground_truth(spec: ModelSpec, i: int) -> AnalyticGroundTruth:
    if spec.kind == RADIAL_ISOCHRON_CLOCK:
        a = spec.param("a", i)
        return AnalyticGroundTruth(
            lam=-2.0 * a, omega=1.0, sigma_scale=a,
            phi=lambda th, r: th + 0.0 * r,
            sigma=lambda th, r: (r ** 2 - 1.0) / (2.0 * a * r ** 2) + 0.0 * th,
            k_theta=lambda ph, s: ph + 0.0 * s,
            k_r=lambda ph, s: 1.0 / np.sqrt(1.0 - 2.0 * a * s) + 0.0 * ph,
        )
    if spec.kind == CANONICAL:
        a = spec.param("a", i)
        alpha = spec.param("alpha", i)
        return AnalyticGroundTruth(
            lam=-2.0 * alpha, omega=1.0 + alpha * a, sigma_scale=alpha,
            phi=lambda th, r: th + a * np.log(r),
            sigma=lambda th, r: (1.0 - 1.0 / r ** 2) / (2.0 * alpha) + 0.0 * th,
            k_theta=lambda ph, s: ph + 0.5 * a * np.log(1.0 - 2.0 * alpha * s),
            k_r=lambda ph, s: 1.0 / np.sqrt(1.0 - 2.0 * alpha * s) + 0.0 * ph,
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
