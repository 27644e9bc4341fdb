"""Orbit iteration engine.

Escape-radius derivation, repelling cycles of a base polynomial, attracting
cycles from critical tails and the trapping disks that certify them, and
the chordal (spherical) metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import NumericalError, PreconditionError
from .poly import Poly1, SkewProduct, check_regular, fiber_poly, roots

__all__ = [
    "Rect",
    "EscapeParams",
    "derive_escape_radius",
    "repelling_cycles",
    "chordal_distance",
]

DEFAULT_MAX_ITER = 2000
GRID_MAX_ITER = 200
CYCLE_TAIL_LEN = 160    # critical-tail length searched for attracting cycles
CYCLE_MAX_PERIOD = 64
CYCLE_TOL = 1e-6
REPELLING_TOL = 1e-2    # repelling means a multiplier modulus above 1 + this


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


def repelling_cycles(p: Poly1, n: int) -> list:
    """The repelling period-n points of p, as (z, orbit, multiplier) triples:
    z runs over the roots of the expanded polynomial p^n(z) - z, in the order
    `roots` returns them, orbit is z, p(z), ..., p^{n-1}(z) and multiplier
    is (p^n)'(z), kept when its modulus exceeds 1 + REPELLING_TOL.  Empty
    when the root finder fails."""
    q = p
    for _ in range(n - 1):
        q = p.compose(q)
    try:
        fix = roots(q - Poly1([0.0, 1.0]), tol=1e-8)
    except NumericalError:
        return []
    dp = p.deriv()
    cycles = []
    for z in fix:
        orbit = p.orbit(z, n)
        mult = complex(np.prod(dp(np.array(orbit))))
        if abs(mult) > 1.0 + REPELLING_TOL:
            cycles.append((complex(z), orbit, mult))
    return cycles


def _attracting_cycle_from_tail(g: Poly1, tail: np.ndarray):
    """Detect an attracting cycle from an orbit tail by self-distance
    minimization over candidate periods up to CYCLE_MAX_PERIOD (at most half
    the tail); returns (cycle, multiplier) or None."""
    t = np.asarray(tail, dtype=complex)
    max_period = min(CYCLE_MAX_PERIOD, max(1, len(t) // 2))
    for k in range(1, max_period + 1):
        if np.max(np.abs(t[k:] - t[:-k])) < CYCLE_TOL:
            cyc = t[-k:]
            mult = np.prod(g.deriv()(cyc))
            return cyc, complex(mult)
    return None


def _bounded_critical_tails(g: Poly1):
    """Lazily, the last CYCLE_TAIL_LEN iterates of each critical orbit of g
    that stays within the escape radius for DEFAULT_MAX_ITER steps; escaping
    orbits yield nothing.  Callers set the numpy error state."""
    radius = _one_var_radius(g.coeffs)
    for c in roots(g.deriv()):
        tail = []
        for n, x in enumerate(islice(g.walk(c), DEFAULT_MAX_ITER)):
            if not math.isfinite(x.real) or abs(x) > radius:
                break
            if n >= DEFAULT_MAX_ITER - CYCLE_TAIL_LEN:
                tail.append(x)
        else:
            yield np.array(tail)


def _attracting_base_cycles(p: Poly1):
    """Attracting cycles of the polynomial p (a base map, or a fiber period
    map) found from critical tails."""
    cycles = []
    with np.errstate(over="ignore", invalid="ignore"):
        for tail in _bounded_critical_tails(p):
            found = _attracting_cycle_from_tail(p, tail)
            if found is not None:
                cyc, _ = found
                if not any(np.min(np.abs(cyc[0] - k)) < 1e-5 for k in cycles):
                    cycles.append(cyc)
    return cycles


def _trap_chains(Q: Poly1, maps: list, radius: float) -> list:
    """Certified trapping disks around the attracting cycles of the periodic
    map sequence maps[0], ..., maps[k-1], maps[0], ..., whose period map is
    Q = maps[k-1] o ... o maps[0].

    One (centers, radii) pair per certified cycle: for a cycle of period m
    of Q, the L = m * k points of its orbit under the sequence, disk t
    belonging to maps[t % k].  That map, evaluated by float Horner, sends
    every float point of disk t strictly into disk (t + 1) % L, and every
    disk lies inside `radius`, so an orbit that enters a disk never leaves
    the disks and never escapes.  The certificate: with t_j the Taylor
    coefficients of g = maps[t % k] at c_t and a_j those of g,
    r_{t+1} >= (1 + 1e-6) (|t_0 - c_{t+1}| + sum_{j>=1} |t_j| r_t^j
    + 64 d^2 eps sum_j |a_j| (|c_t| + r_t)^j), where the last term bounds
    the rounding both of the grid's Horner step and of the t_j.  The chain
    starts at r_0 = 0.5, halved up to 60 times, and closes when it comes
    back around within r_0.  A cycle whose chain never closes gets no
    disks; a failed cycle search gives none at all.
    """
    try:
        cycles = _attracting_base_cycles(Q)
    except NumericalError:
        return []
    k = len(maps)
    chains = []
    for cyc in cycles:
        centers = [complex(cyc[0])]
        for t in range(len(cyc) * k - 1):
            centers.append(complex(maps[t % k](centers[-1])))
        radii = _close_disk_chain(centers, maps, radius)
        if radii is not None:
            chains.append((np.array(centers), np.array(radii)))
    return chains


def _close_disk_chain(centers: list, maps: list, radius: float):
    """Radii that certify the disk chain of `_trap_chains`, or None."""
    eps = np.finfo(float).eps
    steps = []
    for t, c in enumerate(centers):
        g = maps[t % len(maps)]
        taylor = g.compose(Poly1([c, 1.0])).coeffs
        miss = abs(taylor[0] - centers[(t + 1) % len(centers)])
        a = np.abs(g.coeffs)
        steps.append((abs(c), miss, np.abs(taylor[1:]), a,
                      64.0 * g.degree ** 2 * eps))
    for h in range(61):
        r = r0 = 0.5 * 2.0 ** -h
        radii = []
        for c_abs, miss, taylor, a, rounding in steps:
            if (c_abs + r) * (1.0 + 1e-6) > radius:
                break
            radii.append(r)
            r = (1.0 + 1e-6) * (
                miss + float(np.sum(taylor * r ** np.arange(1, len(a))))
                + rounding * float(np.sum(a * (c_abs + r) ** np.arange(len(a)))))
        else:
            if r <= r0:
                return radii
    return None


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
