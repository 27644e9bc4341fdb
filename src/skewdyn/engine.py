"""Orbit iteration engine.

Escape-radius derivation, escape-time orbit classification with omega-tail
capture, the chordal (spherical) metric, and an empirical probe of chordal
contraction of fiber segments under iteration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .poly import SkewProduct, check_regular, fiber_poly

__all__ = [
    "Rect",
    "EscapeParams",
    "OrbitRecord",
    "derive_escape_radius",
    "classify_orbit",
    "chordal_distance",
    "contraction_probe",
    "orbit_record_to_json",
]

DEFAULT_MAX_ITER = 2000
GRID_MAX_ITER = 200
DEFAULT_TAIL_LEN = 64


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in C: [re_min, re_max] x [im_min, im_max]."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def corners(self):
        return np.array(
            [
                complex(self.re_min, self.im_min),
                complex(self.re_max, self.im_min),
                complex(self.re_min, self.im_max),
                complex(self.re_max, self.im_max),
            ]
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.corners())))

    def sample(self, n, seed=0):
        rng = np.random.default_rng(seed)
        re = rng.uniform(self.re_min, self.re_max, n)
        im = rng.uniform(self.im_min, self.im_max, n)
        return re + 1j * im

    @staticmethod
    def square(center: complex, half_side: float) -> "Rect":
        c = complex(center)
        return Rect(
            c.real - half_side, c.real + half_side,
            c.imag - half_side, c.imag + half_side,
        )


@dataclass(frozen=True)
class EscapeParams:
    radius: float
    base_radius: float
    max_iter: int = DEFAULT_MAX_ITER
    base_window: Rect = field(default=Rect(-2.0, 2.0, -2.0, 2.0))

    def with_max_iter(self, m: int) -> "EscapeParams":
        return EscapeParams(self.radius, self.base_radius, m, self.base_window)


@dataclass(frozen=True)
class OrbitRecord:
    start: tuple
    status: str                 # "escaped" | "bounded"
    escape_iter: int | None
    tail: np.ndarray            # shape (T, 2) complex; empty when escaped
    params: EscapeParams


def _one_var_radius(coeffs) -> float:
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    lead = abs(c[-1])
    lower = float(np.sum(np.abs(c[:-1])))
    return max(2.0, (4.0 / lead) ** (1.0 / (d - 1)), (2.0 / lead) * (1.0 + lower))


def derive_escape_radius(
    f: SkewProduct,
    base_window: Rect | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    base_points=None,
) -> EscapeParams:
    """Radius R such that |q_z(w)| >= 2|w| for |w| >= R over the base region.

    Coefficient-norm construction with sampled verification (1000 points on
    the circle |w| = R over 100 base points); doubled on failure, which
    terminates by leading-term dominance of regular maps.  When base_points
    is given, the coefficient bounds are evaluated at those points instead
    of over the enclosing window, which can be far tighter for bases whose
    Julia set fills little of its bounding box.
    """
    ok, diag = check_regular(f)
    if not ok:
        raise PreconditionError(f"map is not regular: {diag}")
    d = f.degree
    base_radius = _one_var_radius(f.p.coeffs)
    if base_window is None:
        if base_points is not None:
            pts = np.asarray(base_points, dtype=complex)
            pad = 0.1 * (np.max(np.abs(pts)) + 1.0)
            base_window = Rect(
                float(pts.real.min() - pad), float(pts.real.max() + pad),
                float(pts.imag.min() - pad), float(pts.imag.max() + pad),
            )
        else:
            base_window = Rect(-base_radius, base_radius,
                               -base_radius, base_radius)
    c = f.q.coeffs
    lead = abs(c[0, d])
    if base_points is not None:
        pts = np.asarray(base_points, dtype=complex)
        # |b_j(z)| evaluated exactly at the sample points; polyval maps the
        # first (z-power) axis of the coefficient table, giving shape
        # (fiber_degree + 1, n_points)
        Babs = np.abs(np.polynomial.polynomial.polyval(pts, c))
        lower = float(np.max(np.sum(Babs[:d], axis=0)))
    else:
        zmax = base_window.max_abs()
        powers = zmax ** np.arange(c.shape[0])
        B = np.abs(c).T @ powers  # B[j] bounds |b_j(z)| on the window
        lower = float(np.sum(B[:d]))
    radius = max(
        2.0,
        (4.0 / lead) ** (1.0 / (d - 1)),
        (2.0 / lead) * (1.0 + lower),
    )
    rng = np.random.default_rng(seed)
    for _ in range(64):
        if base_points is not None:
            pts = np.asarray(base_points, dtype=complex)
            zs = pts[rng.integers(0, len(pts), min(100, len(pts)))]
        else:
            zs = base_window.sample(100, seed=int(rng.integers(2**31)))
        ws = radius * np.exp(2j * np.pi * rng.random(1000))
        good = True
        for z in zs:
            qz = fiber_poly(f, z)
            if np.any(np.abs(qz(ws)) < 2.0 * radius):
                good = False
                break
        if good:
            break
        radius *= 2.0
    return EscapeParams(radius=radius, base_radius=base_radius,
                        max_iter=max_iter, base_window=base_window)


def classify_orbit(
    f: SkewProduct,
    x,
    params: EscapeParams,
    tail_len: int = DEFAULT_TAIL_LEN,
) -> OrbitRecord:
    """Iterate f from x; escaped once either coordinate leaves its radius.

    Bounded orbits retain the last `tail_len` iterates (after a 10% burn-in
    of max_iter) as the omega-tail sample.  Non-finite intermediates count
    as escaped at that step.
    """
    z, w = complex(x[0]), complex(x[1])
    burn = params.max_iter // 10
    buf = np.zeros((tail_len, 2), dtype=complex)
    filled = 0
    for n in range(1, params.max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            z, w = complex(f.p(z)), complex(f.q(z, w))
        if (
            not np.isfinite(z.real) or not np.isfinite(z.imag)
            or not np.isfinite(w.real) or not np.isfinite(w.imag)
            or abs(z) > params.base_radius
            or abs(w) > params.radius
        ):
            return OrbitRecord((complex(x[0]), complex(x[1])), "escaped", n,
                               np.zeros((0, 2), dtype=complex), params)
        if n > burn:
            buf[filled % tail_len] = (z, w)
            filled += 1
    if filled >= tail_len:
        k = filled % tail_len
        tail = np.concatenate([buf[k:], buf[:k]])
    else:
        tail = buf[:filled]
    return OrbitRecord((complex(x[0]), complex(x[1])), "bounded", None, tail, params)


def chordal_distance(a, b) -> float:
    """Spherical metric 2|a-b| / sqrt((1+|a|^2)(1+|b|^2)), with infinity.

    Pass None or an infinite complex for the point at infinity.
    Vectorizes over numpy arrays of finite points.
    """
    a_inf = a is None or (np.isscalar(a) and not np.isfinite(a))
    b_inf = b is None or (np.isscalar(b) and not np.isfinite(b))
    if a_inf and b_inf:
        return 0.0
    if a_inf or b_inf:
        fin = np.asarray(b if a_inf else a, dtype=complex)
        d = 2.0 / np.sqrt(1.0 + np.abs(fin) ** 2)
        return float(d) if d.ndim == 0 else d
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = 2.0 * np.abs(a - b) / np.sqrt((1.0 + np.abs(a) ** 2) * (1.0 + np.abs(b) ** 2))
    return float(d) if d.ndim == 0 else d


def _chordal_diameter(pts: np.ndarray) -> float:
    a = pts[:, None]
    b = pts[None, :]
    s = np.sqrt(1.0 + np.abs(pts) ** 2)
    d = 2.0 * np.abs(a - b) / (s[:, None] * s[None, :])
    return float(np.max(d))


def contraction_probe(
    f: SkewProduct,
    z,
    segment,
    m_max: int,
    jz_cloud=None,
    delta: float = 1e-3,
    n_samples: int = 64,
):
    """Chordal diameters of forward images of a fiber segment, m = 0..m_max.

    The segment must stay chordal distance >= delta from the supplied fiber
    Julia sample (contraction holds only away from the Julia set); the
    caller fits the geometric decay rate of the returned diameters.
    """
    a, b = complex(segment[0]), complex(segment[1])
    t = np.linspace(0.0, 1.0, max(n_samples, 64))
    pts = a + t * (b - a)
    if jz_cloud is not None and len(jz_cloud) > 0:
        jz = np.asarray(jz_cloud, dtype=complex)
        sp = np.sqrt(1.0 + np.abs(pts) ** 2)
        sj = np.sqrt(1.0 + np.abs(jz) ** 2)
        dmin = np.min(
            2.0 * np.abs(pts[:, None] - jz[None, :]) / (sp[:, None] * sj[None, :])
        )
        if dmin < delta:
            raise PreconditionError(
                f"segment within chordal {dmin:.2e} of the fiber Julia sample"
            )
    diams = [_chordal_diameter(pts)]
    for zc in f.p.orbit(z, m_max):
        pts = fiber_poly(f, zc)(pts)
        big = ~np.isfinite(pts) | (np.abs(pts) > 1e150)
        pts = np.where(big, 1e150 + 0j, pts)
        diams.append(_chordal_diameter(pts))
    return np.array(diams)


def orbit_record_to_json(rec: OrbitRecord) -> str:
    obj = {
        "status": rec.status,
        "escape_iter": rec.escape_iter,
        "tail": [
            [p[0].real, p[0].imag, p[1].real, p[1].imag] for p in rec.tail
        ],
    }
    return json.dumps(obj, sort_keys=True)
