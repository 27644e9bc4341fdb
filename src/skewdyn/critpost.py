"""Critical locus, postcritical clouds, accumulation sets, saddles,
trapping verification, and the Axiom A certifier.

The accumulation chain (pointwise tails, per-component tails, full-locus
accumulation) is approximated at cloud level; connected components of the
critical locus are surrogate-identified by epsilon-clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.spatial import cKDTree

from .engine import (
    EscapeParams,
    _attracting_base_cycles,
    _attracting_cycle_from_tail,
    _bounded_critical_tails,
    chordal_distance,
    derive_escape_radius,
    repelling_cycles,
)
from .errors import NumericalError, PreconditionError
from .poly import Poly1, SkewProduct, compose_fiber, fiber_poly, roots
from .sets import (CloudIndex, PointCloud, _as_real, min_chordal_distance,
                   sphere_embed)

__all__ = [
    "CriticalSample",
    "SaddleOrbit",
    "CertificationReport",
    "attract_or_escape_1d",
    "critical_locus",
    "postcritical_cloud",
    "apt_cloud",
    "acc_cloud",
    "acc_full_probe",
    "find_saddles",
    "certify_axiom_a",
    "verify_trapping",
]

DEFAULT_MARGIN = 1e-2
MIN_PC_SAMPLES = 1000
MAX_BASE_PERIOD = 3     # base cycles: exact-cycle table and saddle search
TAIL_FRAC = 0.25        # an orbit tail is the last quarter of its span
TAIL_LEN = 64           # at most this many tail steps in `critical_locus`
ACC_ITER = 300          # steps of each member orbit in `acc_cloud`
PROBE_TAIL_FRAC = 0.5   # share of the probe points `acc_full_probe` keeps
MAX_FIBER_MULTIPLE = 2  # fiber periods n*j, j <= this, in `find_saddles`


@dataclass(frozen=True)
class CriticalSample:
    z: complex
    c: complex
    component_id: int
    status: str                       # "escaped" | "bounded"
    omega_tail: np.ndarray            # (T, 2) complex, empty when escaped


@dataclass(frozen=True)
class SaddleOrbit:
    base_period: int
    base_point: complex
    fiber_point: complex
    base_multiplier: complex
    vertical_multiplier: complex
    cycle: np.ndarray                 # (n, 2) complex orbit points


@dataclass(frozen=True)
class CertificationReport:
    clauses: dict                     # {"i".."iv": {"pass": bool, "margin": float}}
    verdict: str                      # Certified-C2 | Certified-P2 | Failed(..) | Inconclusive
    sample_counts: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)


def attract_or_escape_1d(g: Poly1, margin: float = DEFAULT_MARGIN):
    """Hyperbolicity test for a one-variable polynomial.

    Every critical orbit must either escape or settle within 1e-6 of a
    detected attracting cycle whose multiplier modulus is below 1 - margin.
    Returns (ok, worst_margin) where worst_margin is the smallest
    attraction/escape margin observed over the critical points.
    """
    if g.degree < 2:
        raise PreconditionError("degree must be >= 2 for the 1D test")
    worst = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for tail in _bounded_critical_tails(g):
            found = _attracting_cycle_from_tail(g, tail)
            if found is None:
                return False, 0.0
            _, mult = found
            m = 1.0 - abs(mult)
            if m < margin:
                return False, m
            worst = min(worst, m)
    if worst is np.inf or worst == np.inf:
        worst = 1.0  # all critical orbits escaped
    return True, float(worst)


def _cluster(points_2d: np.ndarray, eps: float) -> np.ndarray:
    """Single-linkage cluster labels: connected components of the
    eps-neighbor graph in C^2 (Euclidean on R^4)."""
    n = len(points_2d)
    tree = cKDTree(_as_real(points_2d))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in tree.query_pairs(eps):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    labels = np.array([find(i) for i in range(n)])
    _, labels = np.unique(labels, return_inverse=True)
    return labels


def _base_snap(p: Poly1, index: CloudIndex, starts: np.ndarray) -> dict:
    """Drift guard and exact-cycle table for forward base orbits.

    Long forward orbits on the expanding base Julia set leave it by float
    error alone, so iterates are only trusted while the base coordinate
    stays within a tolerance of the base sample.  Start points that are
    numerically periodic (period <= MAX_BASE_PERIOD) are stepped along their
    exact float cycle instead, which never drifts.
    """
    spacing = index.spacing if len(index.inverse) > 1 else 0.0
    tol = max(5.0 * spacing, 1e-3)
    n = len(starts)
    row = np.full(n, -1, dtype=int)
    cycles: list[np.ndarray] = []
    cache: dict[complex, int] = {}
    for i in range(n):
        z0 = complex(starts[i])
        if z0 in cache:
            row[i] = cache[z0]
            continue
        orbit = p.orbit(z0, MAX_BASE_PERIOD + 1)
        r = -1
        for k in range(1, MAX_BASE_PERIOD + 1):
            if abs(orbit[k] - z0) < 1e-9:
                cycles.append(np.array(orbit[:k], dtype=complex))
                r = len(cycles) - 1
                break
        cache[z0] = r
        row[i] = r
    if cycles:
        maxlen = max(len(c) for c in cycles)
        pad = np.zeros((len(cycles), maxlen), dtype=complex)
        lens = np.zeros(len(cycles), dtype=int)
        for i, c in enumerate(cycles):
            pad[i, : len(c)] = c
            lens[i] = len(c)
    else:
        pad = np.zeros((0, 1), dtype=complex)
        lens = np.zeros(0, dtype=int)
    return {"index": index, "tol": tol, "row": row, "pad": pad, "lens": lens}


def _run_spans(f: SkewProduct, zs, ws, n_iter: int, params: EscapeParams,
               snap: dict, width: int):
    """Step each tracked orbit once: to fiber escape, base drift or n_iter.

    An orbit is trusted up to its last step before escape or drift (exactly
    periodic base rows are stepped along their stored cycle and never
    drift).  Returns (esc, owner, step, tail): esc[i] is the fiber-escape
    step of orbit i (-1 if none); tail lists the last
    min(ceil(TAIL_FRAC * end), width) trusted iterates of every orbit, end
    its last trusted step, by orbit and then by step, with owner and step
    the orbit index and step of each row.  An orbit's last `width` trusted
    iterates are kept in a ring buffer as it goes.
    """
    z = np.asarray(zs, dtype=complex).copy()
    w = np.asarray(ws, dtype=complex).copy()
    n = len(z)
    esc = np.full(n, -1, dtype=int)
    end = np.full(n, n_iter, dtype=int)
    ring = np.zeros((n, width, 2), dtype=complex)
    alive = np.ones(n, dtype=bool)
    radius, base_radius = params.radius, params.base_radius
    index, tol = snap["index"], snap["tol"]
    row, pad, lens = snap["row"], snap["pad"], snap["lens"]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_iter + 1):
            if not alive.any():
                break
            idx = np.where(alive)[0]
            za, wa = z[idx], w[idx]
            wn = f.q(za, wa)
            zn = f.p(za)
            ra = row[idx]
            per = ra >= 0
            if per.any():
                zn[per] = pad[ra[per], k % lens[ra[per]]]
            wesc = (~np.isfinite(wn.real) | ~np.isfinite(wn.imag)
                    | (np.abs(wn) > radius))
            stop = wesc.copy()
            gen = ~per & ~wesc
            if gen.any():
                zg = zn[gen]
                finite = (np.isfinite(zg.real) & np.isfinite(zg.imag)
                          & (np.abs(zg) <= base_radius))
                dd = np.full(gen.sum(), np.inf)
                if finite.any():
                    dd[finite] = index.query(_as_real(zg[finite]))[0]
                stop[gen] = dd > tol
            esc[idx[wesc]] = k
            end[idx[stop]] = k - 1
            alive[idx[stop]] = False
            z[idx], w[idx] = zn, wn
            live = ~stop
            ring[idx[live], (k - 1) % width, 0] = zn[live]
            ring[idx[live], (k - 1) % width, 1] = wn[live]
    count = np.minimum(np.ceil(TAIL_FRAC * end).astype(int), width)
    owner = np.repeat(np.arange(n), count)
    first = np.cumsum(count) - count
    step = end[owner] - count[owner] + 1 + np.arange(len(owner)) - first[owner]
    return esc, owner, step, ring[owner, (step - 1) % width]


def critical_locus(f: SkewProduct, base: PointCloud,
                   params: EscapeParams | None = None):
    """Fiber critical points over a base Julia sample, classified and
    clustered.

    For each base sample z, the roots of dq_z/dw are classified by orbit
    escape; component ids come from single-linkage clustering in C^2 with
    threshold 3x the nearest-neighbor base spacing.  Each orbit is stepped
    once, for params.max_iter steps, by `_run_spans`: it is trusted only
    while the base coordinate stays near the base sample (exactly periodic
    base points never drift); an orbit whose fiber coordinate has not
    escaped by the end of its trusted span counts as bounded and its
    omega-tail is the last quarter of that span, at most TAIL_LEN steps, in
    step order.
    """
    if params is None:
        params = derive_escape_radius(f)
    zs, cs = [], []
    dq = f.q.dw()
    for z in base.points:
        dcoef = npoly.polyval(complex(z), dq.coeffs)
        try:
            crits = roots(Poly1(dcoef))
        except (NumericalError, ValueError):
            continue
        for c in crits:
            zs.append(complex(z))
            cs.append(complex(c))
    zs = np.array(zs, dtype=complex)
    cs = np.array(cs, dtype=complex)
    index = CloudIndex(_as_real(base.points))
    labels = _cluster(np.column_stack([zs, cs]), 3.0 * index.spacing)
    snap = _base_snap(f.p, index, zs)
    esc, owner, _, tail = _run_spans(f, zs, cs, params.max_iter, params, snap,
                                     TAIL_LEN)
    bounded = esc < 0
    tails = np.split(tail, np.searchsorted(owner, np.arange(1, len(zs))))
    empty = np.zeros((0, 2), dtype=complex)
    out = []
    for i in range(len(zs)):
        out.append(
            CriticalSample(
                z=zs[i],
                c=cs[i],
                component_id=int(labels[i]),
                status="bounded" if bounded[i] else "escaped",
                omega_tail=tails[i] if bounded[i] else empty,
            )
        )
    return out


def postcritical_cloud(f: SkewProduct, crit, n_iter: int = 200,
                       params: EscapeParams | None = None) -> PointCloud:
    """Forward images of the critical locus samples, 1 <= k <= n_iter,
    pruned of fiber-escaped points.

    The base coordinate is re-projected onto the nearest base sample point
    after every step (a pseudo-orbit on the sampled base Julia set), so
    orbits never drift off the expanding base and terminal iterates land on
    the densely sampled attracting part — keeping the cloud numerically
    forward-invariant at its own resolution.
    """
    if not crit:
        raise PreconditionError("empty critical locus")
    if params is None:
        params = derive_escape_radius(f)
    zs = np.array([s.z for s in crit])
    ws = np.array([s.c for s in crit])
    base_pts = np.unique(zs)
    index = CloudIndex(_as_real(base_pts))
    z = zs.copy()
    w = ws.copy()
    alive = np.ones(len(z), dtype=bool)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_iter):
            if not alive.any():
                break
            idx = np.where(alive)[0]
            za, wa = z[idx], w[idx]
            wn = f.q(za, wa)
            zn = f.p(za)
            ok = (np.isfinite(zn.real) & np.isfinite(zn.imag)
                  & np.isfinite(wn.real) & np.isfinite(wn.imag)
                  & (np.abs(wn) <= params.radius)
                  & (np.abs(zn) <= params.base_radius))
            zsnap = zn.copy()
            if ok.any():
                zsnap[ok] = base_pts[index.query(_as_real(zn[ok]))[1]]
            alive[idx[~ok]] = False
            z[idx], w[idx] = zsnap, wn
            keep = idx[ok]
            if len(keep):
                out.append(np.column_stack([z[keep], w[keep]]))
    if not out:
        return PointCloud(np.zeros((0, 2), dtype=complex),
                          tag="PostCritical")
    return PointCloud(np.concatenate(out), tag="PostCritical")


def apt_cloud(crit) -> PointCloud:
    """Union of the omega-tails of bounded critical samples (pointwise
    accumulation); empty when every critical orbit escapes."""
    tails = [s.omega_tail for s in crit if s.status == "bounded"]
    tails = [t for t in tails if len(t)]
    if not tails:
        return PointCloud(np.zeros((0, 2), dtype=complex), tag="Apt")
    return PointCloud(np.concatenate(tails), tag="Apt")


def acc_cloud(f: SkewProduct, crit, params: EscapeParams | None = None,
              w_bound: float | None = None) -> PointCloud:
    """Per-component accumulation: forward-orbit tails of every member of
    each critical-locus cluster, union over clusters.

    An all-escaped component contributes nothing, matching the
    all-or-nothing component criterion.  Any other component contributes,
    for each member, the last quarter of the member's trusted span within
    ACC_ITER steps — for escapers that span ends just before fiber escape,
    so slow escapers shadowing the unstable set of the saddle part are
    retained.  The members of all contributing components are stepped in
    one `_run_spans` walk; the points are listed by component (in id
    order), then by step, then by member.  Fiber coordinates above w_bound
    (transient fly-out positions) are pruned.
    """
    if not crit:
        raise PreconditionError("empty critical locus")
    if params is None:
        params = derive_escape_radius(f)
    all_z = np.array([s.z for s in crit])
    all_c = np.array([s.c for s in crit])
    index = CloudIndex(_as_real(np.unique(all_z)))
    _, rank = np.unique([s.component_id for s in crit], return_inverse=True)
    bounded = np.array([s.status == "bounded" for s in crit])
    members = np.flatnonzero(np.bincount(rank, weights=bounded)[rank] > 0)
    zs, ws = all_z[members], all_c[members]
    _, owner, step, pts = _run_spans(f, zs, ws, ACC_ITER, params,
                                     _base_snap(f.p, index, zs),
                                     math.ceil(TAIL_FRAC * ACC_ITER))
    pts = pts[np.lexsort((owner, step, rank[members][owner]))]
    if w_bound is not None:
        pts = pts[np.abs(pts[:, 1]) <= w_bound]
    return PointCloud(pts, tag="Acc")


def acc_full_probe(
    f: SkewProduct,
    z_target,
    branch_policy,
    depth: int = 40,
    params: EscapeParams | None = None,
) -> PointCloud:
    """Full-locus accumulation probe into the fiber of z_target.

    Builds a backward base orbit z_{-1}, ..., z_{-depth} of z_target using
    branch_policy (a symbol string indexing regions in f.meta["regions"],
    cycled, or a callable choosing among candidate preimages), places the
    fiber critical point over each z_{-k}, and pushes it forward k steps.
    Returns the last PROBE_TAIL_FRAC fraction of the resulting points, all
    lying in the fiber of z_target.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if params is None:
        params = derive_escape_radius(f)
    zt = complex(z_target)
    regions = f.meta.get("regions", {})

    def choose(cands, k):
        if callable(branch_policy):
            return branch_policy(cands, k)
        sym = branch_policy[(k - 1) % len(branch_policy)]
        if sym not in regions:
            raise PreconditionError(f"unknown region symbol {sym!r}")
        center = regions[sym]
        return cands[np.argmin(np.abs(cands - center))]

    dq = f.q.dw()
    back = []  # back[k-1] = z_{-k}
    z = zt
    probes_c, ks = [], []
    for k in range(1, depth + 1):
        shifted = f.p.coeffs.copy()
        shifted[0] -= z
        cands = roots(Poly1(shifted))
        z = complex(choose(cands, k))
        back.append(z)
        dcoef = npoly.polyval(z, dq.coeffs)
        for c in roots(Poly1(dcoef)):
            probes_c.append(complex(c))
            ks.append(k)
    # push each (z_{-k}, c) forward exactly k steps, replaying the stored
    # backward chain for the base coordinate (forward base iteration would
    # amplify float error past usefulness on a strongly expanding base)
    pts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for c0, k in zip(probes_c, ks):
            ww = complex(c0)
            ok = True
            for j in range(k, 0, -1):
                ww = complex(fiber_poly(f, back[j - 1])(ww))
                if not np.isfinite(ww.real) or not np.isfinite(ww.imag) \
                        or abs(ww) > params.radius:
                    ok = False
                    break
            if ok:
                pts.append((k, zt, ww))
    if not pts:
        return PointCloud(np.zeros((0, 2), dtype=complex), tag="AccFullProbe")
    pts.sort(key=lambda t: t[0])
    cut = int(len(pts) * (1.0 - PROBE_TAIL_FRAC))
    kept = np.array([(p[1], p[2]) for p in pts[cut:]], dtype=complex)
    return PointCloud(kept, tag="AccFullProbe")


def find_saddles(f: SkewProduct, max_base_period: int = MAX_BASE_PERIOD):
    """Saddle periodic orbits: base-repelling, fiber-attracting cycles.

    Scans the repelling base cycles of periods n <= max_base_period
    (`engine.repelling_cycles`), then fiber-periodic points of the composed
    fiber maps Q_z^{nj}, j <= MAX_FIBER_MULTIPLE, with vertical multiplier
    modulus below 1 - DEFAULT_MARGIN (a fiber cycle over a period-n base
    point can have period any multiple of n); orbits duplicated across
    divisor periods are removed.
    """
    saddles = []
    for n in range(1, max_base_period + 1):
        for z, orbit_z, mu_base in repelling_cycles(f.p, n):
            fibers = [fiber_poly(f, zk) for zk in orbit_z]
            dfibers = [qz.deriv() for qz in fibers]
            for j in range(1, MAX_FIBER_MULTIPLE + 1):
                m = n * j
                try:
                    Q = compose_fiber(f, z, m)
                    wfix = roots(Q - Poly1([0.0, 1.0]), tol=1e-8)
                except (ValueError, NumericalError):
                    continue
                for w in wfix:
                    # vertical multiplier by the chain rule along the cycle
                    mu_v = 1.0 + 0.0j
                    ww = complex(w)
                    pts = []
                    for zk, qz, dqz in zip(orbit_z * j, fibers * j,
                                           dfibers * j):
                        mu_v *= dqz(ww)
                        pts.append((zk, ww))
                        ww = complex(qz(ww))
                    if abs(mu_v) >= 1.0 - DEFAULT_MARGIN:
                        continue
                    if abs(ww - complex(w)) > 1e-6 * max(1.0, abs(w)):
                        continue
                    cyc = np.array(pts, dtype=complex)
                    dup = False
                    for s in saddles:
                        d = np.abs(s.cycle[None, :, 0] - cyc[:, None, 0]) \
                            + np.abs(s.cycle[None, :, 1] - cyc[:, None, 1])
                        if np.min(d) < 1e-6:
                            dup = True
                            break
                    if dup:
                        continue
                    saddles.append(
                        SaddleOrbit(
                            base_period=n,
                            base_point=complex(z),
                            fiber_point=complex(w),
                            base_multiplier=mu_base,
                            vertical_multiplier=complex(mu_v),
                            cycle=cyc,
                        )
                    )
    return saddles


def _map_at_infinity(f: SkewProduct) -> Poly1:
    """Induced degree-d polynomial on the line at infinity:
    the degree-d homogeneous part of q at (1, zeta) over the leading
    coefficient of p."""
    d = f.degree
    c = f.q.coeffs
    g = np.zeros(d + 1, dtype=complex)
    for j in range(d + 1):
        i = d - j
        if i < c.shape[0] and j < c.shape[1]:
            g[j] = c[i, j]
    return Poly1(g / f.p.coeffs[-1])


def certify_axiom_a(
    f: SkewProduct,
    base: PointCloud,
    j2: PointCloud,
    margin: float = DEFAULT_MARGIN,
    params: EscapeParams | None = None,
) -> CertificationReport:
    """Four-clause hyperbolicity certification of a regular skew product.

    (i) the base polynomial is hyperbolic; (ii) the postcritical cloud over
    the base Julia sample keeps chordal distance > margin from the J2
    cloud; (iii) the composed fiber maps over each attracting base cycle
    are hyperbolic; (iv) the induced map on the line at infinity is
    hyperbolic.  Verdict Certified-C2 needs (i)-(iii); Certified-P2 also
    needs (iv); fewer than 1000 postcritical samples gives Inconclusive.
    """
    if params is None:
        params = derive_escape_radius(f)
    clauses = {}
    ok_i, m_i = attract_or_escape_1d(f.p, margin)
    clauses["i"] = {"pass": bool(ok_i), "margin": float(m_i)}
    crit = critical_locus(f, base, params=params)
    pc = postcritical_cloud(f, crit, params=params)
    n_pc = len(pc)
    if n_pc < MIN_PC_SAMPLES:
        return CertificationReport(
            clauses={"i": clauses["i"]},
            verdict="Inconclusive",
            sample_counts={"base": len(base), "postcritical": n_pc,
                           "j2": len(j2)},
            seeds={"base": base.seed, "j2": j2.seed},
        )
    dist = min_chordal_distance(pc, j2)
    clauses["ii"] = {"pass": bool(dist > margin), "margin": float(dist)}
    ok_iii, m_iii = True, np.inf
    for cyc in _attracting_base_cycles(f.p):
        z0 = complex(cyc[0])
        try:
            Q = compose_fiber(f, z0, len(cyc))
        except ValueError:
            Q = None
        if Q is None:
            ok_iii = False
            m_iii = 0.0
            break
        ok, m = attract_or_escape_1d(Q, margin)
        ok_iii = ok_iii and ok
        m_iii = min(m_iii, m)
    if m_iii is np.inf or m_iii == np.inf:
        m_iii = 1.0
    clauses["iii"] = {"pass": bool(ok_iii), "margin": float(m_iii)}
    ok_iv, m_iv = attract_or_escape_1d(_map_at_infinity(f), margin)
    clauses["iv"] = {"pass": bool(ok_iv), "margin": float(m_iv)}
    if clauses["i"]["pass"] and clauses["ii"]["pass"] and clauses["iii"]["pass"]:
        verdict = "Certified-P2" if clauses["iv"]["pass"] else "Certified-C2"
    else:
        failing = next(k for k in ("i", "ii", "iii") if not clauses[k]["pass"])
        verdict = f"Failed({failing})"
    return CertificationReport(
        clauses=clauses,
        verdict=verdict,
        sample_counts={"base": len(base), "postcritical": n_pc, "j2": len(j2)},
        seeds={"base": base.seed, "j2": j2.seed},
    )


def verify_trapping(
    f: SkewProduct,
    t_cloud: PointCloud,
    j2: PointCloud,
    r: float,
    m: int = 50,
) -> dict:
    """Check that the vertical r-neighborhood of a forward-invariant cloud
    contracts into its r/2-neighborhood under some iterate f^k, k <= m.

    Preconditions: f maps each cloud point back within cloud spacing of the
    cloud, and the cloud keeps chordal distance > r from the J2 cloud.
    Returns {"pass", "m", "worst_ratio", ...}; ratios are worst image
    distance to the cloud over r.
    """
    if t_cloud.dim != 2 or len(t_cloud) == 0:
        raise PreconditionError("t_cloud must be a nonempty 2D cloud")
    index = CloudIndex(sphere_embed(t_cloud.points))
    spacing = 0.0
    nn = np.zeros(len(t_cloud))
    if len(t_cloud) > 1:
        nn = index.nn_distances()
        spacing = index.spacing
    # forward invariance up to the cloud's local resolution at each point
    zi = t_cloud.points[:, 0]
    wi = t_cloud.points[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        z1, w1 = f.p(zi), f.q(zi, wi)
    img = sphere_embed(np.column_stack([z1, w1]))
    dinv, _ = index.query(img)
    # resolution scale: local spacing, or the base-coordinate sampling
    # spacing (iterates pile up on the attracting part, so the cloud's own
    # nearest-neighbor distances understate the resolution of its base grid)
    zu = np.unique(zi)
    base_spacing = CloudIndex(_as_real(zu)).spacing if len(zu) > 1 else 0.0
    inv_tol = np.maximum(3.0 * np.maximum(nn, base_spacing), 1e-6)
    if np.any(dinv > inv_tol):
        worst = float(np.max(dinv - inv_tol))
        raise PreconditionError(
            f"cloud not forward-invariant: worst image offset exceeds the "
            f"local resolution by {worst:.3e}"
        )
    gap = min_chordal_distance(t_cloud, j2)
    if gap <= r:
        raise PreconditionError(
            f"cloud within chordal {gap:.3e} of the J2 cloud (need > r = {r})"
        )
    # vertical chordal r-circle samples around (a deterministic stride of)
    # the cloud points; the distance index still holds the full cloud
    max_centers = 1000
    stride = max(1, len(t_cloud) // max_centers)
    centers = t_cloud.points[::stride]
    n_ring = 32
    phis = 2.0 * np.pi * np.arange(n_ring) / n_ring
    zs, ws = [], []
    for zc, wc in centers:
        rho = (r / 2.0) * (1.0 + abs(wc) ** 2)
        for _ in range(8):
            wprim = wc + rho * np.exp(1j * phis)
            ch = chordal_distance(np.full(n_ring, wc), wprim)
            rho = rho * r / max(np.max(ch), 1e-300)
        zs.append(np.full(n_ring, zc))
        ws.append(wc + rho * np.exp(1j * phis))
    z = np.concatenate(zs)
    w = np.concatenate(ws)
    best = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, m + 1):
            z, w = f.p(z), f.q(z, w)
            bad = ~np.isfinite(w.real) | (np.abs(w) > 1e100)
            w = np.where(bad, 1e100, w)
            d, _ = index.query(sphere_embed(np.column_stack([z, w])))
            ratio = float(np.max(d)) / r
            if best is None or ratio < best[1]:
                best = (k, ratio)
            if ratio < 0.5:
                return {
                    "pass": True, "m": k, "worst_ratio": ratio, "r": r,
                    "cloud_spacing": spacing, "j2_gap": gap,
                }
    return {
        "pass": False, "m": best[0], "worst_ratio": best[1], "r": r,
        "cloud_spacing": spacing, "j2_gap": gap,
    }
