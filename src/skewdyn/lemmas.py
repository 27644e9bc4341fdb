"""Quantitative verification checks with measured margins.

Each check returns a JSON-ready dict {"id", "pass", ...margins...}.  The
ids name what is verified; the superattracting-base family checks take the
base period n, the two-attractor construction checks take the built map
and its constants, and the trapping check wraps verify_trapping.
"""

from __future__ import annotations

import numpy as np

from .critpost import verify_trapping
from .errors import PreconditionError
from .families import (S1S2Constants, _lower_part, _postcritical_points,
                       _ring_margin, _s1s2_conditions, airplane_beta,
                       make_airplane_skew)
from .poly import Poly1, SkewProduct, fiber_poly
from .sets import sample_base_julia

__all__ = [
    "check_box_bound",
    "check_escape_ring",
    "check_ray_surrogate",
    "check_strip_escape",
    "check_box_self_map",
    "check_box_avoid",
    "check_s1s2_constants",
    "check_s1s2_bounds",
    "check_trapping",
    "LEMMA_CHECKS",
]

RAY_BALL_RADIUS = 1.0 / 16.0  # the exclusion ball B(2, r) around beta
RAY_CAP = 400               # iterates a ray-surrogate sample may take
BOX_BOUND_EPS = 0.25        # box-bound: the bound on |Im z|
RING_RADIUS = 3.5           # escape-ring: the circle |w| = radius
RING_FACTOR = 15.0 / 14.0   # escape-ring: the required expansion
STRIP_DELTA = 1e-3          # strip-escape: the strip |Im w| <= delta
BOX_GRID = 41               # box-self-map: grid points per side of the box
BOX_AVOID_MARGIN = 0.05     # box-avoid: the margin required


def _airplane(n):
    f = make_airplane_skew(n)
    return f, airplane_beta(f)


def _ray_samples(n, n_samples, seed):
    """The airplane map of base period n, up to n_samples of its base
    Julia samples (drawn from 4 * n_samples) outside B(2, RAY_BALL_RADIUS),
    and the first iterate at which each sample reaches the left half-plane
    (-1 if none within RAY_CAP)."""
    f, _ = _airplane(n)
    cloud = sample_base_julia(f.p, 4 * n_samples, seed=seed)
    z = cloud.points[np.abs(cloud.points - 2.0) > RAY_BALL_RADIUS][:n_samples]
    if len(z) == 0:
        raise PreconditionError("no base samples outside the exclusion ball")
    first = np.full(len(z), -1, dtype=int)
    cur = z.copy()
    for j in range(RAY_CAP):
        first[(first < 0) & (cur.real <= 0.0)] = j
        if (first >= 0).all():
            break
        cur = f.p(cur)
    return f, z, first


def check_box_bound(n: int, n_samples: int = 100000, seed: int = 0) -> dict:
    """Bounding box of the base Julia set: [-2-tol, 2+tol] x [-eps, eps]."""
    f, _ = _airplane(n)
    cloud = sample_base_julia(f.p, n_samples, seed=seed)
    eps = float(np.max(np.abs(cloud.points.imag)))
    re_max = float(np.max(np.abs(cloud.points.real)))
    return {
        "id": "box-bound",
        "n": n,
        "epsilon": eps,
        "re_max": re_max,
        "pass": bool(eps < BOX_BOUND_EPS and re_max <= 2.0 + 1e-6),
    }


def check_escape_ring(n: int, n_samples: int = 10000, seed: int = 0) -> dict:
    """Ring escape: |q_z(w)| >= RING_FACTOR * |w| on |w| = RING_RADIUS over
    the base Julia sample (so that disk holds every fiber bounded set)."""
    f, _ = _airplane(n)
    rng = np.random.default_rng(seed)
    cloud = sample_base_julia(f.p, n_samples, seed=seed)
    w = RING_RADIUS * np.exp(2j * np.pi * rng.random(n_samples))
    vals = np.abs(f.q(cloud.points, w))
    ratio = float(np.min(vals / RING_RADIUS))
    return {
        "id": "escape-ring",
        "n": n,
        "min_ratio": ratio,
        "required": RING_FACTOR,
        "pass": bool(ratio >= RING_FACTOR - 1e-9),
    }


def check_ray_surrogate(n: int, n_samples: int = 1000, seed: int = 0) -> dict:
    """Every base Julia sample outside the ball B(2, r) reaches the left
    half-plane within a uniform number of iterates; reports that N."""
    _, z, first = _ray_samples(n, n_samples, seed)
    reached = first >= 0
    return {
        "id": "ray-surrogate",
        "n": n,
        "samples": int(len(z)),
        "N": int(np.max(first)) if reached.all() else None,
        "pass": bool(reached.all()),
    }


def check_strip_escape(n: int, n_samples: int = 500, seed: int = 0) -> dict:
    """Horizontal strip |Im w| <= STRIP_DELTA escapes D(0, 3.5) after N
    fiber steps over base samples outside B(2, r), N one more than the
    ray-surrogate bound."""
    f, z, first = _ray_samples(n, n_samples, seed)
    if (first < 0).any():
        raise PreconditionError("a base sample never reaches Re z <= 0")
    N = int(np.max(first)) + 1
    rng = np.random.default_rng(seed)
    w = (rng.uniform(-4, 4, (len(z), 64))
         + 1j * rng.uniform(-STRIP_DELTA, STRIP_DELTA, (len(z), 64)))
    zz = z[:, None] * np.ones((1, 64))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(N):
            zz, w = f.p(zz), f.q(zz, w)
            w = np.where(np.isfinite(w.real), w, 1e30)
            w = np.where(np.abs(w) > 1e15, 1e15, w)
    min_mod = float(np.min(np.abs(w)))
    return {
        "id": "strip-escape",
        "n": n,
        "delta": STRIP_DELTA,
        "N": N,
        "min_modulus": min_mod,
        "pass": bool(min_mod > 3.5),
    }


def check_box_self_map(n: int, delta_prime: float = 0.2,
                       n_samples: int = 20000, seed: int = 0) -> dict:
    """The box {|Re w| <= 1/4, |Im w| <= delta'} maps strictly inside
    itself under the fiber maps over base Julia points near the rightmost
    fixed point, those within RAY_BALL_RADIUS of 2."""
    f, beta = _airplane(n)
    cloud = sample_base_julia(f.p, n_samples, seed=seed)
    z = cloud.points[np.abs(cloud.points - 2.0) <= RAY_BALL_RADIUS]
    z = np.concatenate([z, [complex(beta)]])
    xs = np.linspace(-0.25, 0.25, BOX_GRID)
    ys = np.linspace(-delta_prime, delta_prime, BOX_GRID)
    X, Y = np.meshgrid(xs, ys)
    w = (X + 1j * Y).ravel()
    worst_re, worst_im = 0.0, 0.0
    for zc in z:
        img = fiber_poly(f, zc)(w)
        worst_re = max(worst_re, float(np.max(np.abs(img.real))))
        worst_im = max(worst_im, float(np.max(np.abs(img.imag))))
    return {
        "id": "box-self-map",
        "n": n,
        "delta_prime": delta_prime,
        "base_samples": int(len(z)),
        "margin_re": 0.25 - worst_re,
        "margin_im": delta_prime - worst_im,
        "pass": bool(worst_re < 0.25 and worst_im < delta_prime),
    }


def check_box_avoid(n: int, delta: float = 0.2, n_samples: int = 20000,
                    seed: int = 0) -> dict:
    """The box {|Re w| <= 1/4, |Im w| <= delta} avoids the fiber Julia set
    over the rightmost base fixed point, with a measured margin."""
    f, beta = _airplane(n)
    g = fiber_poly(f, beta)
    jb = sample_base_julia(g, n_samples, seed=seed).points
    dre = np.maximum(np.abs(jb.real) - 0.25, 0.0)
    dim = np.maximum(np.abs(jb.imag) - delta, 0.0)
    margin = float(np.min(np.sqrt(dre**2 + dim**2)))
    return {
        "id": "box-avoid",
        "n": n,
        "delta": delta,
        "margin": margin,
        "pass": bool(margin > BOX_AVOID_MARGIN),
    }


def check_s1s2_constants(consts: S1S2Constants, s1: Poly1, s2: Poly1) -> dict:
    """Re-verify the searched constants of the two-attractor construction."""
    M, r, R, d = consts.M, consts.r, consts.R, consts.d
    c_exp, c_dom, c_sup = _s1s2_conditions(_lower_part(s1, d),
                                           _lower_part(s2, d), r, M)
    pc_margin = _ring_margin([_postcritical_points(s) for s in (s1, s2)], M)
    c_R = abs(R - (2.0 * M**d - r)) < 1e-9
    return {
        "id": "construction-constants",
        "M": M,
        "r": r,
        "R": R,
        "expansion": bool(c_exp),
        "dominance": bool(c_dom),
        "sup_bound": bool(c_sup),
        "postcritical_ring_margin": float(pc_margin),
        "pass": bool(c_exp and c_dom and c_sup and c_R
                     and pc_margin >= 0.05),
    }


def check_s1s2_bounds(f: SkewProduct, consts: S1S2Constants,
                      n_samples: int = 2000, seed: int = 0) -> dict:
    """Sampled modulus bounds for the built map: the 3M-ring expands, and
    crossing fibers (base in one disk mapping to the other) throw the
    M-disk outside D(0, 3M)."""
    M, R, r = consts.M, consts.R, consts.r
    rng = np.random.default_rng(seed)
    base = sample_base_julia(f.p, n_samples, seed=seed).points
    w_ring = 3 * M * np.exp(2j * np.pi * rng.random(n_samples))
    ring_ratio = float(np.min(np.abs(f.q(base, w_ring)) / np.abs(w_ring)))
    crossing = base[np.abs(f.p(base) + np.sign(base.real) * R) < 2 * r]
    if len(crossing):
        w_disk = M * np.sqrt(rng.random((len(crossing), 32))) * np.exp(
            2j * np.pi * rng.random((len(crossing), 32)))
        vals = np.abs(f.q(crossing[:, None], w_disk))
        cross_min = float(np.min(vals))
    else:
        cross_min = float("nan")
    return {
        "id": "construction-bounds",
        "ring_ratio": ring_ratio,
        "crossing_min_modulus": cross_min,
        "crossing_samples": int(len(crossing)),
        "pass": bool(ring_ratio >= 2.0
                     and (np.isnan(cross_min) or cross_min > 3 * M)),
    }


def check_trapping(f, t_cloud, j2, r: float = 0.1, m: int = 50) -> dict:
    rep = verify_trapping(f, t_cloud, j2, r=r, m=m)
    rep["id"] = "trapping"
    return rep


LEMMA_CHECKS = {
    "box-bound": check_box_bound,
    "escape-ring": check_escape_ring,
    "ray-surrogate": check_ray_surrogate,
    "strip-escape": check_strip_escape,
    "box-self-map": check_box_self_map,
    "box-avoid": check_box_avoid,
    "construction-constants": check_s1s2_constants,
    "construction-bounds": check_s1s2_bounds,
    "trapping": check_trapping,
}
