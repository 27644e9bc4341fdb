"""Constructors for the example skew-product families.

Products, the twisted quadratic family (z^2, w^2 + a z), the
superattracting-base family (z^2 + c_n, w^2 + 2(2 - z)), a two-attractor
construction blending two monic hyperbolic fiber maps over a Cantor base,
and the fixed illustrative map (z^2 - 20, w^2 + z^2 - 0.9 z - 20.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .critpost import attract_or_escape_1d
from .engine import _one_var_radius, chordal_distance
from .errors import NumericalError, PreconditionError
from .poly import Poly1, Poly2, SkewProduct, roots

__all__ = [
    "S1S2Constants",
    "make_product",
    "make_Fa",
    "solve_superattracting_param",
    "make_airplane_skew",
    "build_s1s2",
    "make_fig3",
]


@dataclass(frozen=True)
class S1S2Constants:
    M: float
    r: float
    R: float
    a: complex
    xi: np.ndarray
    k1: int
    k2: int
    d: int


def make_product(p: Poly1, q: Poly1, name: str = "product") -> SkewProduct:
    """Product map (p(z), q(w)) as a degenerate skew product."""
    if p.degree != q.degree:
        raise PreconditionError(
            f"degree mismatch: {p.degree} vs {q.degree} (regularity needs equality)"
        )
    if p.degree < 2:
        raise PreconditionError("degrees must be >= 2")
    qc = np.zeros((1, q.degree + 1), dtype=complex)
    qc[0, :] = q.coeffs
    return SkewProduct(p=p, q=Poly2(qc),
                       meta={"name": name,
                             "regions": {"1": 1.0, "2": -1.0},
                             "probe_target": 1.0,
                             "probe_policy": "1"})


def make_Fa(a) -> SkewProduct:
    """The twisted family (z^2, w^2 + a z) over the circle base."""
    a = complex(a)
    qc = np.zeros((2, 3), dtype=complex)
    qc[0, 2] = 1.0
    qc[1, 0] = a
    return SkewProduct(
        p=Poly1([0.0, 0.0, 1.0]),
        q=Poly2(qc),
        meta={
            "name": "Fa",
            "a": a,
            "g": Poly1([a, 0.0, 1.0]),
            "regions": {"1": 1.0, "2": -1.0},
            "probe_target": 1.0,
            "probe_policy": "1",
        },
    )


def _orbit_newton(c: float, n: int, steps: int) -> float:
    """Newton steps on c -> f_c^n(0) for f_c(w) = w^2 + c, tracking the
    orbit value and its c-derivative."""
    for _ in range(steps):
        v, dv = c, 1.0
        for _ in range(n - 1):
            v, dv = v * v + c, 2.0 * v * dv + 1.0
        if dv == 0:
            break
        c = c - v / dv
    return c


def _exact_period(c: float, n: int) -> bool:
    """Whether the critical orbit of w^2 + c, n >= 2, makes no earlier
    return to within 1e-6 of 0 than its n-th step."""
    v = c
    if not abs(v) > 1e-6:
        return False
    for _ in range(2, n):
        v = v * v + c
        if abs(v) < 1e-6:
            return False
    return True


def solve_superattracting_param(n: int) -> float:
    """Real parameter c closest to -2 whose critical point has exact
    period n under w^2 + c.

    Root-scan of the n-th orbit polynomial on the real axis with exact
    period filtering and a Newton polish.  Near -2 the period-n roots
    crowd closer than the scan's grid spacing (2 + c_n is about
    (2 + c_{n-1}) / 4), so a scan can miss the one closest to -2; Newton
    from -2 + (2 + c_{m-1}) / 4, for m = 3, ..., n from c_2 = -1, adds it
    when it has exact period n and no scanned root lies within 1e-12.
    """
    if not 2 <= n <= 12:
        raise PreconditionError("n must be in [2, 12]")
    # offset endpoints so rational roots never land exactly on a grid node
    grid = np.linspace(-2.000013, 0.500017, 200001)
    x = grid.copy()  # orbit_1 = c
    for _ in range(n - 1):
        x = x * x + grid
    sign = np.sign(x)
    idx = np.where(sign[:-1] * sign[1:] < 0)[0]
    candidates = []
    for i in idx:
        lo, hi = grid[i], grid[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            xm = mid
            for _ in range(n - 1):
                xm = xm * xm + mid
            # lo only moves onto points of its own sign, sign[i]
            if np.sign(xm) == sign[i]:
                lo = mid
            else:
                hi = mid
        c = _orbit_newton(0.5 * (lo + hi), n, 8)
        if _exact_period(c, n):
            candidates.append(c)
    c = -1.0
    for m in range(3, n + 1):
        c = _orbit_newton(-2.0 + (2.0 + c) / 4.0, m, 40)
    if _exact_period(c, n) and all(abs(c - x) > 1e-12 for x in candidates):
        candidates.append(c)
    if not candidates:
        raise NumericalError(f"no superattracting parameter found for n={n}")
    return float(min(candidates))  # the real solution closest to -2


def make_airplane_skew(n: int) -> SkewProduct:
    """Superattracting-base family (z^2 + c_n, w^2 + 2(2 - z))."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    c = solve_superattracting_param(n)
    qc = np.zeros((2, 3), dtype=complex)
    qc[0, 2] = 1.0
    qc[0, 0] = 4.0
    qc[1, 0] = -2.0
    beta = 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * c))
    return SkewProduct(
        p=Poly1([c, 0.0, 1.0]),
        q=Poly2(qc),
        meta={
            "name": "airplane",
            "n": n,
            "c": c,
            "beta": float(beta),
            "regions": {"1": float(beta), "2": -float(beta)},
            "probe_target": float(beta),
            "probe_policy": "1",
        },
    )


def make_fig3() -> SkewProduct:
    """The fixed illustrative map (z^2 - 20, w^2 + z^2 - 0.9 z - 20.5)."""
    qc = np.zeros((3, 3), dtype=complex)
    qc[0, 2] = 1.0
    qc[0, 0] = -20.5
    qc[1, 0] = -0.9
    qc[2, 0] = 1.0
    return SkewProduct(
        p=Poly1([-20.0, 0.0, 1.0]),
        q=Poly2(qc),
        meta={"name": "fig3",
              "regions": {"1": 5.0, "2": -4.0},
              "probe_target": 5.0,
              "probe_policy": "1"},
    )


def _annulus_chordal_margin(pts: np.ndarray, M: float) -> float:
    """Smallest chordal distance from the points to the ring M <= |w| <= 3M
    (radial projection is the nearest ring point)."""
    margin = np.inf
    for x in pts:
        ax = abs(x)
        if M <= ax <= 3 * M:
            return 0.0
        u = x / ax if ax > 0 else 1.0
        target = M * u if ax < M else 3 * M * u
        margin = min(margin, chordal_distance(x, target))
    return float(margin)


def _postcritical_points(s: Poly1, n_iter: int = 200, bound: float = None):
    radius = _one_var_radius(s.coeffs) if bound is None else bound
    pts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for c in roots(s.deriv()):
            for x in islice(s.walk(c), n_iter):
                if not math.isfinite(x.real) or abs(x) > 1e12:
                    break
                pts.append(x)
                if abs(x) > radius * 4:
                    break
    return np.array(pts, dtype=complex)


def _lower_part(s: Poly1, d: int) -> np.ndarray:
    """The coefficients of t = s - w^d, padded to length d."""
    t = np.zeros(d, dtype=complex)
    t[: len(s.coeffs) - 1] = s.coeffs[:-1]
    return t


def _s1s2_conditions(t1, t2, r: float, M: float) -> tuple:
    """(expansion, dominance, sup_bound) of the two-attractor construction:
    M^(d-1) > 36, and sum_j (|t_ij| + 2r) M^j and sum_j |t_ij| M^j at most
    M^d / 2 for both lower parts t_i."""
    d = len(t1)
    pows = M ** np.arange(d)
    return (
        M ** (d - 1) > 36.0,
        max(float(np.sum((np.abs(t) + 2 * r) * pows)) for t in (t1, t2))
        <= 0.5 * M**d,
        max(float(np.sum(np.abs(t) * pows)) for t in (t1, t2)) <= 0.5 * M**d,
    )


def _ring_margin(pcs, M: float) -> float:
    """Smallest chordal distance from the postcritical point sets pcs to the
    ring M <= |w| <= 3M; inf when every set is empty."""
    return min((_annulus_chordal_margin(pc, M) for pc in pcs if len(pc)),
               default=np.inf)


def build_s1s2(s1: Poly1, s2: Poly1, k1: int, k2: int, seed: int = 0):
    """Skew product whose fibers over two Cantor base pieces shadow the
    monic hyperbolic maps s1 and s2.

    The base is p(z) = a (z - xi_1)...(z - xi_d) with root clusters inside
    disks of radius r/2 about +/-R, R = 2 M^d - r; the fiber polynomial
    linearly interpolates the lower-order parts t_i = s_i - w^d across the
    two disks.  The constants (M, r, R, a) come from a verified search;
    failure of any search cap raises with the failing clause.
    """
    if k1 < 1 or k2 < 1:
        raise PreconditionError("k1 and k2 must be >= 1")
    d = k1 + k2
    if s1.degree != d or s2.degree != d:
        raise PreconditionError("s1, s2 must have degree k1 + k2")
    if abs(s1.coeffs[-1] - 1.0) > 0 or abs(s2.coeffs[-1] - 1.0) > 0:
        raise PreconditionError("s1, s2 must be monic")
    ok1, m1 = attract_or_escape_1d(s1)
    ok2, m2 = attract_or_escape_1d(s2)
    if not (ok1 and ok2):
        raise PreconditionError("s1 and s2 must pass the 1D hyperbolicity test")
    t1, t2 = _lower_part(s1, d), _lower_part(s2, d)

    # r search: hyperbolicity of both s_i robust under coefficient
    # perturbations of size 2r (margins stay above half the clean value)
    rng = np.random.default_rng(seed)
    r = 1.0 / 16.0
    while True:
        if r < 1e-6:
            raise NumericalError("constant search failed: r below 1e-6 "
                                 "(perturbation robustness)")
        good = True
        for s, m0 in ((s1, m1), (s2, m2)):
            for _ in range(100):
                delta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                delta = delta / np.sum(np.abs(delta)) * 2.0 * r
                pert = s.coeffs.copy()
                pert[:d] = pert[:d] + delta
                okp, mp = attract_or_escape_1d(Poly1(pert))
                if not okp or mp < m0 / 2.0:
                    good = False
                    break
            if not good:
                break
        if good:
            break
        r /= 2.0

    # M search: leading-term dominance and postcritical avoidance of the
    # ring M <= |w| <= 3M (checked along forward orbits, which covers the
    # ring's preimages)
    pcs = [_postcritical_points(s) for s in (s1, s2)]
    M = 2.0
    while True:
        if M > 1e6:
            raise NumericalError("constant search failed: M above 1e6")
        if (all(_s1s2_conditions(t1, t2, r, M))
                and _ring_margin(pcs, M) >= 0.05):
            break
        M *= 2.0

    R = 2.0 * M**d - r
    xi = []
    for k, center in ((k1, R), (k2, -R)):
        for j in range(k):
            xi.append(center + (r / 4.0) * np.exp(2j * np.pi * j / k))
    xi = np.array(xi, dtype=complex)

    # a search: p must cover D(0, 2R) from each root disk
    a = 1.0
    theta = 2.0 * np.pi * np.arange(256) / 256
    while True:
        if a > 1e30:
            raise NumericalError("constant search failed: a above 1e30 "
                                 "(base covering)")
        ok = True
        for center in (R, -R):
            ring = center + r * np.exp(1j * theta)
            vals = a * np.prod(ring[:, None] - xi[None, :], axis=1)
            if np.min(np.abs(vals)) <= 2.0 * R:
                ok = False
                break
        if ok:
            break
        a *= 2.0

    p_coeffs = np.polynomial.polynomial.polyfromroots(xi) * a
    p = Poly1(p_coeffs)
    qc = np.zeros((max(d + 1, 2), d + 1), dtype=complex)
    qc[0, d] = 1.0
    # interpolated lower-order fiber parts
    qc[0, :d] += 0.5 * (t1 + t2)
    qc[1, :d] += (t1 - t2) / (2.0 * R)
    # plus p(z) - z in the w-constant column
    qc[: d + 1, 0] += p_coeffs
    qc[1, 0] -= 1.0
    f = SkewProduct(
        p=p,
        q=Poly2(qc),
        meta={
            "name": "s1s2",
            "regions": {"1": complex(R), "2": complex(-R)},
            "probe_policy": "2",
        },
    )
    consts = S1S2Constants(M=M, r=r, R=R, a=complex(a), xi=xi, k1=k1, k2=k2, d=d)
    # probe target: the fixed base point inside the first root disk
    fixed = roots(p - Poly1([0.0, 1.0]))
    in_d1 = fixed[np.abs(fixed - R) < 2 * r]
    meta = dict(f.meta)
    meta["probe_target"] = complex(in_d1[0]) if len(in_d1) else complex(fixed[0])
    meta["constants"] = consts
    f = SkewProduct(p=f.p, q=f.q, meta=meta)
    return f, consts
