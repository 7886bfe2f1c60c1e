"""Real Fourier-Taylor bases: polynomial in amplitude, trigonometric in angle.

Three layouts are used across the toolkit: single-oscillator rows r^n * {1,
cos k*theta, sin k*theta}, and pairwise rows r_i^mi r_j^mj * f(theta_i) *
g(theta_j) where f runs over {1, cos, sin} harmonics of the oscillator's own
angle and g over {cos, sin} harmonics of the input angle.  The input factor
never contains a constant, so every pairwise element genuinely depends on the
driving oscillator.  Enumeration orders are fixed and exposed as term
descriptor lists so fitted coefficients can be addressed symbolically.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch

__all__ = [
    "SingleBasisSpec",
    "PairBasisSpec",
    "FittedSeries",
    "SingleTerm",
    "PairTerm",
    "single_terms",
    "pair_terms",
    "single_row",
    "pair_row",
    "series_eval",
    "series_eval_grad",
]

CONST = "1"
COS = "cos"
SIN = "sin"


@dataclass(frozen=True)
class SingleBasisSpec:
    """Max radial power ``n_max`` and max harmonic ``k_max`` of a single-oscillator basis."""

    n_max: int
    k_max: int

    def __post_init__(self):
        if self.n_max < 0 or self.k_max < 0:
            raise ValueError("basis orders must be nonnegative")

    @property
    def size(self) -> int:
        return (self.n_max + 1) * (2 * self.k_max + 1)

    def to_dict(self) -> dict:
        return {"type": "single", "n_max": self.n_max, "k_max": self.k_max}


@dataclass(frozen=True)
class PairBasisSpec:
    """Pairwise basis over (theta_i, r_i, theta_j, r_j) or the reduced analogue.

    ``mode`` selects the amplitude-power constraint: "observable" enforces
    m_i + m_j <= m_max (total power), "reduced" allows independent powers up
    to m_max each.
    """

    m_max: int
    ki_max: int
    kj_max: int
    mode: str = "observable"

    def __post_init__(self):
        if self.m_max < 0 or self.ki_max < 0 or self.kj_max < 1:
            raise ValueError("need m_max, ki_max >= 0 and kj_max >= 1")
        if self.mode not in ("observable", "reduced"):
            raise ValueError(f"unknown pair basis mode {self.mode!r}")

    def amplitude_pairs(self) -> list[tuple[int, int]]:
        out = []
        for mi in range(self.m_max + 1):
            mj_top = self.m_max - mi if self.mode == "observable" else self.m_max
            for mj in range(mj_top + 1):
                out.append((mi, mj))
        return out

    @property
    def n_own(self) -> int:
        return 2 * self.ki_max + 1

    @property
    def n_inp(self) -> int:
        return 2 * self.kj_max

    @property
    def size(self) -> int:
        return len(self.amplitude_pairs()) * self.n_own * self.n_inp

    def to_dict(self) -> dict:
        return {"type": "pair", "m_max": self.m_max, "ki_max": self.ki_max,
                "kj_max": self.kj_max, "mode": self.mode}


def spec_from_dict(d: dict):
    fields = {key: value for key, value in d.items() if key != "type"}
    return {"single": SingleBasisSpec, "pair": PairBasisSpec}[d["type"]](**fields)


@dataclass(frozen=True)
class SingleTerm:
    index: int
    n: int          # radial power
    k: int          # harmonic
    trig: str       # "1", "cos" or "sin"


@dataclass(frozen=True)
class PairTerm:
    index: int
    mi: int
    mj: int
    own_k: int
    own_trig: str   # "1", "cos" or "sin"
    inp_k: int
    inp_trig: str   # "cos" or "sin"


def single_terms(spec: SingleBasisSpec) -> list[SingleTerm]:
    terms = []
    for n in range(spec.n_max + 1):
        terms.append(SingleTerm(len(terms), n, 0, CONST))
        for k in range(1, spec.k_max + 1):
            terms.append(SingleTerm(len(terms), n, k, COS))
            terms.append(SingleTerm(len(terms), n, k, SIN))
    return terms


def pair_terms(spec: PairBasisSpec) -> list[PairTerm]:
    own = [(0, CONST)] + [kt for k in range(1, spec.ki_max + 1)
                          for kt in ((k, COS), (k, SIN))]
    inp = [kt for k in range(1, spec.kj_max + 1) for kt in ((k, COS), (k, SIN))]
    terms = []
    for mi, mj in spec.amplitude_pairs():
        for ok, ot in own:
            for ik, it in inp:
                terms.append(PairTerm(len(terms), mi, mj, ok, ot, ik, it))
    return terms


@functools.cache
def _terms(spec) -> tuple:
    """Term descriptors of ``spec``, enumerated once per spec."""
    return tuple(single_terms(spec) if isinstance(spec, SingleBasisSpec)
                 else pair_terms(spec))


def _harmonics(theta: np.ndarray, k_max: int, constant: bool, lead: tuple,
               grad: bool):
    """{1,} cos k*theta, sin k*theta along a new trailing axis, and d/dtheta
    (None unless ``grad``) taken from the same columns.

    Each (cos, sin) column pair is one complex number, so the harmonics come
    from one complex exponential per point by the angle-addition recurrence
    e^{ik theta} = e^{i(k-1) theta} e^{i theta}.  The error is about k
    rounding units (under 3e-15 at k = 32) and does not grow with |k*theta|.
    """
    first = int(constant)
    val = np.empty(lead + (first + 2 * k_max,))
    val[..., :first] = 1.0
    z = val[..., first:].view(complex)
    if k_max:
        z[..., 0] = np.exp(1j * theta)
    for k in range(1, k_max):
        np.multiply(z[..., k - 1], z[..., 0], out=z[..., k])
    if not grad:
        return val, None
    k = np.arange(1, k_max + 1)
    der = np.zeros_like(val)
    der[..., first::2] = -k * val[..., first + 1::2]
    der[..., first + 1::2] = k * val[..., first::2]
    return val, der


def _monomials(r: np.ndarray, n_max: int, lead: tuple):
    """r^0 .. r^n_max along a new trailing axis."""
    val = np.empty(lead + (n_max + 1,))
    for n in range(n_max + 1):
        val[..., n] = r ** n
    return val


def _factors(spec, point, grad: bool = False):
    """Per-axis factor stacks of ``spec`` at ``point``.

    A basis row is the row-major outer product of the returned stacks: radius
    powers x angular harmonics for a single spec, amplitude pairs x own
    harmonics x input harmonics for a pair spec.  With ``grad``, the second
    result lists, for each coordinate (angles first, then radii), the slot of
    the stack it enters and that stack's derivative; otherwise it is None.
    """
    single = isinstance(spec, SingleBasisSpec)
    if len(point) != (2 if single else 4):
        raise ArityMismatch("single-oscillator series takes (theta, radius)" if single
                            else "pairwise series takes (theta_i, r_i, theta_j, r_j)")
    point = [np.asarray(p, dtype=float) for p in point]
    lead = np.broadcast_shapes(*(p.shape for p in point))
    # d(r^n)/dr = n * r^(n-1) is read off the monomial stack itself.
    if single:
        pw = _monomials(point[1], spec.n_max, lead)
        ang, dang = _harmonics(point[0], spec.k_max, True, lead, grad)
        if not grad:
            return [pw, ang], None
        n = np.arange(spec.n_max + 1)
        return [pw, ang], [(1, dang), (0, n * pw[..., np.maximum(n - 1, 0)])]
    theta_i, r_i, theta_j, r_j = point
    own, down = _harmonics(theta_i, spec.ki_max, True, lead, grad)
    inp, dinp = _harmonics(theta_j, spec.kj_max, False, lead, grad)
    pw_i = _monomials(r_i, spec.m_max, lead)
    pw_j = _monomials(r_j, spec.m_max, lead)
    mi, mj = np.array(spec.amplitude_pairs()).T
    amp = pw_i[..., mi] * pw_j[..., mj]
    if not grad:
        return [amp, own, inp], None
    damp_i = mi * pw_i[..., np.maximum(mi - 1, 0)] * pw_j[..., mj]
    damp_j = mj * pw_i[..., mi] * pw_j[..., np.maximum(mj - 1, 0)]
    return [amp, own, inp], [(1, down), (2, dinp), (0, damp_i), (0, damp_j)]


def _outer(stacks) -> np.ndarray:
    """Row-major outer product of factor stacks over their trailing axis."""
    row = stacks[0]
    for f in stacks[1:]:
        row = (row[..., :, None] * f[..., None, :]).reshape(
            *f.shape[:-1], row.shape[-1] * f.shape[-1])
    return row


def single_row(spec: SingleBasisSpec, theta, radius) -> np.ndarray:
    """Basis row(s) at (theta, radius); broadcasts over leading axes.  With
    n_max = 0 that is the harmonic stack itself, as x * r^0 == x."""
    pw, ang = _factors(spec, (theta, radius))[0]
    return ang if spec.n_max == 0 else _outer([pw, ang])


def pair_row(spec: PairBasisSpec, theta_i, r_i, theta_j, r_j) -> np.ndarray:
    """Basis row(s) at (theta_i, r_i, theta_j, r_j); broadcasts over leading axes."""
    return _outer(_factors(spec, (theta_i, r_i, theta_j, r_j))[0])


def row_slices(n: int, rows: int) -> list[slice]:
    """Slices of ``rows`` consecutive rows covering range(n).  A lone last row
    joins the slice before it: numpy's complex multiply takes one point by
    another loop than two or more, so its basis row can differ in the last bit."""
    stops = [*range(rows, n - 1, rows), n]
    return [slice(lo, hi) for lo, hi in zip([0, *stops], stops)]


def _code(key: tuple) -> str:
    return ":".join(map(str, key))


@dataclass(frozen=True)
class FittedSeries:
    """Coefficient vector aligned to a basis spec's enumeration order."""

    spec: object
    coefficients: np.ndarray

    def __post_init__(self):
        c = self.coefficients
        if np.shape(c) != (self.spec.size,) or not np.isfinite(c).all():
            raise ValueError(f"coefficients must be {self.spec.size} finite numbers in a flat list")

    def coefficient(self, **kwargs) -> float:
        """Look up one coefficient by term attributes, e.g. (n=1, k=0)."""
        hits = [t for t in _terms(self.spec)
                if all(getattr(t, key) == val for key, val in kwargs.items())]
        if len(hits) != 1:
            raise KeyError(f"term lookup {kwargs} matched {len(hits)} terms")
        return float(self.coefficients[hits[0].index])

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(),
                "coefficients": [float(c) for c in self.coefficients]}

    @classmethod
    def from_dict(cls, d: dict, kind: str) -> "FittedSeries":
        """Inverse of to_dict for a series whose spec is of ``kind``: "single",
        "gamma" (single with n_max 0, a pure harmonic series) or a pair spec's
        mode, "observable" or "reduced"; any other spec is a ValueError."""
        spec = spec_from_dict(d["spec"])
        have = "single" if isinstance(spec, SingleBasisSpec) else spec.mode
        if kind != have and not (kind == "gamma" and have == "single" and spec.n_max == 0):
            raise ValueError(f"spec must be a {kind} spec, not {d['spec']!r}")
        return cls(spec, np.asarray(d["coefficients"], dtype=float))

    @staticmethod
    def to_table(series: dict) -> dict:
        """JSON table of series keyed (i, name) or (i, j, name): "i:name" or "i:j:name"."""
        return {_code(key): s.to_dict() for key, s in series.items()}

    @classmethod
    def from_table(cls, table: dict, n_oscillators: int, arity: int, names, kind: str) -> dict:
        """Inverse of to_table for a table of exactly the series of each of ``names``
        for every oscillator (arity 1) or every ordered pair i != j (arity 2),
        each with a spec of ``kind`` (see from_dict)."""
        keys = {_code(key): key for node in itertools.permutations(range(n_oscillators), arity)
                for key in [(*node, name) for name in names]}
        if table.keys() != keys.keys():
            raise ValueError(f"series {sorted(table.keys() ^ keys.keys())} missing or unexpected")
        return {key: cls.from_dict(table[code], kind) for code, key in keys.items()}


def series_eval(series: FittedSeries, *point) -> np.ndarray:
    """Value of a fitted series at ``point``; broadcasts over leading axes.

    The basis row is contracted with this one coefficient vector (BLAS gemv).
    Evaluate several series at one point by one call each: a row @ (size, m)
    matrix goes through gemm, whose last bit can differ.
    """
    return _outer(_factors(series.spec, point)[0]) @ series.coefficients


def series_eval_grad(series: FittedSeries, *point):
    """Value and analytic partial derivatives of a fitted series, each
    contracted as in series_eval.

    Single series return (value, d/dtheta, d/dradius); pairwise series return
    (value, (d/dtheta_i, d/dtheta_j), (d/dr_i, d/dr_j)).
    """
    stacks, derivs = _factors(series.spec, point, grad=True)
    rows = [_outer(stacks)] + [_outer(stacks[:slot] + [d] + stacks[slot + 1:])
                               for slot, d in derivs]
    value, *grads = [row @ series.coefficients for row in rows]
    if isinstance(series.spec, SingleBasisSpec):
        return (value, *grads)
    return value, tuple(grads[:2]), tuple(grads[2:])
