"""Orbit iteration engine.

Escape-radius derivation, repelling cycles of a base polynomial, the cycles
of a periodic map sequence found by walking its critical orbits, the
trapping disks that certify the attracting ones, and the chordal
(spherical) metric.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .poly import Poly1, SkewProduct, check_regular, roots

__all__ = [
    "Rect",
    "EscapeParams",
    "derive_escape_radius",
    "repelling_cycles",
    "fiber_cycles",
    "chordal_distance",
]

DEFAULT_MAX_ITER = 2000
GRID_MAX_ITER = 200
CYCLE_TAIL_LEN = 160    # critical-tail length searched for attracting cycles
CYCLE_MAX_PERIOD = 64
CYCLE_TOL = 1e-6
NEWTON_TOL = 1e-12      # relative step and residual that end a cycle polish
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

    def with_max_iter(self, m: int) -> "EscapeParams":
        return EscapeParams(self.radius, self.base_radius, m)


def _doubling_radius(lead, lower: float, d: int) -> float:
    """R with |g(w)| >= 2|w| for |w| >= R, for any degree-d g with leading
    modulus lead and lower coefficient moduli summing to at most lower."""
    return max(2.0, (4.0 / lead) ** (1.0 / (d - 1)), (2.0 / lead) * (1.0 + lower))


def _one_var_radius(coeffs) -> float:
    c = np.asarray(coeffs, dtype=complex)
    return _doubling_radius(abs(c[-1]), float(np.sum(np.abs(c[:-1]))),
                            len(c) - 1)


def derive_escape_radius(f: SkewProduct, base_points=None) -> EscapeParams:
    """Radius R such that |q_z(w)| >= 2|w| for |w| >= R over the base region.

    With lead the w^d coefficient of q and `lower` a bound on the sum of
    the moduli of the lower coefficients b_j(z), j < d, R is
    `_doubling_radius(lead, lower, d)`, so leading-term dominance gives the
    doubling at every z where `lower` holds, with no sampling check.
    Without base_points, `lower` bounds the b_j over the square of
    half-side base_radius about 0, which holds the base Julia set.  With
    base_points it is evaluated at those points only, which can be far
    tighter for bases whose Julia set fills little of its bounding box, and
    the radius is then proven only at those points.
    """
    ok, diag = check_regular(f)
    if not ok:
        raise PreconditionError(f"map is not regular: {diag}")
    d = f.degree
    base_radius = _one_var_radius(f.p.coeffs)
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
        zmax = Rect.square(0.0, base_radius).max_abs()
        powers = zmax ** np.arange(c.shape[0])
        B = np.abs(c).T @ powers  # B[j] bounds |b_j(z)| on the square
        lower = float(np.sum(B[:d]))
    return EscapeParams(radius=_doubling_radius(lead, lower, d),
                        base_radius=base_radius)


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


def _tail_period(tail):
    """The least period m <= CYCLE_MAX_PERIOD (at most half the tail) with
    which the tail repeats to CYCLE_TOL, or None.

    A period m needs |t[m] - t[0]| < CYCLE_TOL, so one array operation
    picks the candidates, with a slack of 1e-9 so that rounding cannot drop
    one, and the full test runs on those alone."""
    t = np.asarray(tail, dtype=complex)
    max_period = min(CYCLE_MAX_PERIOD, max(1, len(t) // 2))
    near = np.abs(t[1:max_period + 1] - t[0]) < CYCLE_TOL * (1.0 + 1e-9)
    for m in np.flatnonzero(near) + 1:
        if np.max(np.abs(t[m:] - t[:-m])) < CYCLE_TOL:
            return int(m)
    return None


def _newton_fiber(fibers: list, w0: complex, tol: float, max_iter: int = 60):
    """Newton on w -> (q_{n-1} o ... o q_0)(w) - w over the given fiber maps,
    evaluated along the orbit; returns (w, multiplier) or None."""
    w = complex(w0)
    for _ in range(max_iter):
        x = w
        mu = 1.0 + 0.0j
        for q in fibers:
            mu *= q.deriv().step(x)
            x = q.step(x)
        val = x - w
        deriv = mu - 1.0
        if deriv == 0:
            return None
        step = val / deriv
        w = w - step
        if abs(val) < tol and abs(step) < tol:
            return w, mu
    return None


def _sequence_cycle(maps: list, m: int, w0: complex):
    """The cycle through (about) the phase-0 point w0 of the sequence
    maps[0..k-1] whose tail repeats with period m, as (points, multiplier):
    w0 polished by Newton on the m k maps (kept as is if Newton fails), cut
    to m' k points for the least divisor m' of m after which the polished
    point returns within CYCLE_TOL (a tail that spirals in, its multiplier
    near a root of unity, can repeat with a multiple of the period), its
    orbit started at its least phase-0 point in (real, imag) order, and
    the chain-rule product of the maps' derivatives along it."""
    k = len(maps)
    seq = maps * m
    with np.errstate(over="ignore", invalid="ignore"):
        polished = _newton_fiber(seq, w0, NEWTON_TOL * max(1.0, abs(w0)))
        pts = [complex(w0) if polished is None else polished[0]]
        for g in seq[:-1]:
            pts.append(g.step(pts[-1]))
        m = next(d for d in range(1, m + 1) if m % d == 0 and (
            d == m or abs(pts[d * k] - pts[0]) < CYCLE_TOL))
        seq, pts = seq[:m * k], pts[:m * k]
        first = min(range(0, len(pts), k),
                    key=lambda i: (pts[i].real, pts[i].imag))
        pts = pts[first:] + pts[:first]
        mult = 1.0 + 0.0j
        for g, w in zip(seq, pts):
            mult *= g.deriv().step(w)
    return np.array(pts), mult


def fiber_cycles(maps: list):
    """The cycles on which the critical orbits of the periodic map sequence
    maps[0], ..., maps[k-1], maps[0], ... settle, with no map composed.

    Every attracting cycle of the period map Q = maps[k-1] o ... o maps[0]
    attracts a critical point of Q (Fatou), and the orbit of that point runs
    along the sequence through a critical point of some maps[j].  So each
    of the k (d - 1) critical points of the maps is walked along the
    sequence from its own phase, for at most DEFAULT_MAX_ITER periods.  A
    walk stops when it leaves the escape radius of every map; when a
    phase-0 point comes within CYCLE_TOL of a phase-0 point of a cycle
    already found; or when its last CYCLE_TAIL_LEN phase-0 points, checked
    every CYCLE_TAIL_LEN periods and at the end, repeat with a period m
    (`_tail_period`).  That cycle is polished by Newton on its m k maps and
    cut to its least period (`_sequence_cycle`), and kept unless it meets a
    cycle already found.

    A walk stops stepping at its first exact float repeat: once a phase-0
    point has the bytes of an earlier one (so 0.0 and -0.0 differ), every
    later point replays the P points between them, and the tail checks
    still due are run on the replayed tails (`_critical_walk`).  The
    outcome is the one of the full walk, bit for bit.

    Returns (cycles, undetermined).  cycles lists (points, multiplier) pairs
    sorted by (len(points), points[0].real, points[0].imag): the L points
    of the cycle (L a multiple of k), point t in the fiber where
    maps[t % k] applies next, from its least phase-0 point in (real, imag)
    order, and the product of the maps' derivatives along it.  A cycle may repel (an
    exactly periodic float orbit), so callers judge the multiplier.
    undetermined counts the critical orbits that neither escape nor settle,
    and the critical points of a map whose root solve failed.
    """
    k = len(maps)
    radius = max(_one_var_radius(g.coeffs) for g in maps)
    cycles, known, undetermined = [], [], 0
    for j, g in enumerate(maps):
        try:
            crits = roots(g.deriv())
        except NumericalError:
            undetermined += g.degree - 1
            continue
        for c in crits:
            m, x = _critical_walk(maps, j, complex(c), radius, known)
            if m is None:
                undetermined += 1
            elif m:
                pts, mult = _sequence_cycle(maps, m, x)
                if not any(abs(pts[0] - y) < CYCLE_TOL for y in known):
                    cycles.append((pts, mult))
                    known.extend(pts[::k].tolist())
    cycles.sort(key=lambda c: (len(c[0]), c[0][0].real, c[0][0].imag))
    return cycles, undetermined


def _critical_walk(maps: list, j: int, x: complex, radius: float,
                   known: list):
    """Walk x from phase j of the sequence, as `fiber_cycles` describes.

    Returns (m, x): the tail period m and the phase-0 point x at which the
    tail settled; m = 0 when the walk escaped or met a known point; m =
    None when it did neither within DEFAULT_MAX_ITER periods.

    The phase-0 points x_1, x_2, ... are kept, with a dict from their bytes
    to their index.  When x_n has the bytes of x_s, s < n, the maps repeat
    from phase 0, so x_{n+i} = x_{s + (i mod P)} with P = n - s.  Each of
    those points was tested against the radius and `known` when first seen,
    so the walk would neither escape nor meet `known` again; what is left
    is the tail checks at the periods still due, each on its replayed tail.
    """
    k = len(maps)
    phase, n = j, 0
    xs, seen = [], {}  # xs[i - 1] is x_i; seen maps the bytes of x_i to i
    while n < DEFAULT_MAX_ITER:
        x = maps[phase].step(x)
        phase = phase + 1 if phase + 1 < k else 0
        if not abs(x) <= radius:  # escaped, or inf or NaN
            return 0, x
        if phase:
            continue
        n += 1
        xs.append(x)
        if any(abs(x - y) < CYCLE_TOL for y in known):
            return 0, x
        if not n % CYCLE_TAIL_LEN or n == DEFAULT_MAX_ITER:
            m = _tail_period(xs[-CYCLE_TAIL_LEN:])
            if m is not None:
                return m, x
        s = seen.setdefault(struct.pack("2d", x.real, x.imag), n)
        if s < n:
            break
    else:
        return None, x
    cycle = xs[s - 1:-1]  # x_{s+i} = cycle[i % (n - s)] for i >= 0
    for t in range(n + 1, DEFAULT_MAX_ITER + 1):
        if t % CYCLE_TAIL_LEN and t < DEFAULT_MAX_ITER:
            continue
        tail = [xs[i - 1] if i < s else cycle[(i - s) % (n - s)]
                for i in range(t - CYCLE_TAIL_LEN + 1, t + 1)]
        m = _tail_period(tail)
        if m is not None:
            return m, tail[-1]
    return None, x


def _trap_chains(maps: list, radius: float) -> list:
    """Certified trapping disks around the attracting cycles of the periodic
    map sequence maps[0], ..., maps[k-1], maps[0], ... (`fiber_cycles`).

    One (centers, radii) pair per certified cycle: for a cycle of length
    L = m * k, its L points, disk t belonging to maps[t % k].  That map,
    evaluated by float Horner, sends every float point of disk t strictly
    into disk (t + 1) % L, and every disk lies inside `radius`, so an orbit
    that enters a disk never leaves the disks and never escapes.  The
    certificate: with t_j the Taylor coefficients of g = maps[t % k] at c_t
    and a_j those of g, r_{t+1} >= (1 + 1e-6) (|t_0 - c_{t+1}| + sum_{j>=1}
    |t_j| r_t^j + 64 d^2 eps sum_j |a_j| (|c_t| + r_t)^j), where the last
    term bounds the rounding both of the grid's Horner step and of the t_j.
    The chain starts at r_0 = 0.5, halved up to 60 times, and closes when it
    comes back around within r_0.  A cycle whose chain never closes (every
    repelling one) gets no disks.
    """
    chains = []
    for centers, _ in fiber_cycles(maps)[0]:
        radii = _close_disk_chain(centers.tolist(), maps, radius)
        if radii is not None:
            chains.append((centers, np.array(radii)))
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
