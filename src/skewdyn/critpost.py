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

from .engine import (
    EscapeParams,
    chordal_distance,
    derive_escape_radius,
    fiber_cycles,
    repelling_cycles,
)
from .errors import NumericalError, PreconditionError
from .poly import _FLOAT_MAX, Poly1, SkewProduct, _horner, fiber_poly, roots
from .sets import (CloudIndex, PointCloud, _as_real, _branch, _distinct_rows,
                   _kdtree, min_chordal_distance, sphere_embed)

__all__ = [
    "CriticalLocus",
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
PROBE_TAIL_FRAC = 0.5   # share of the probe points `acc_full_probe` keeps


@dataclass(frozen=True)
class CriticalLocus:
    """The fiber critical points over a base sample, one entry per orbit,
    and the tails of every orbit from one walk, by orbit and then by step."""
    z: np.ndarray                     # base point of each orbit
    c: np.ndarray                     # fiber critical point over z
    component: np.ndarray             # cluster id, 0, 1, ... (`_cluster`)
    bounded: np.ndarray               # bool: the orbit did not escape
    tail: np.ndarray                  # (T, 2) tails of every orbit
    owner: np.ndarray                 # (T,) orbit index of each tail row
    step: np.ndarray                  # (T,) step of each tail row
    spacing: float                    # median nearest-neighbor base spacing

    def __len__(self) -> int:
        return len(self.z)


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
    """Hyperbolicity test for a one-variable polynomial of degree >= 2: the
    one-map case of `_fibers_hyperbolic`.

    Every critical orbit must either escape or settle on a cycle found by
    walking the critical orbits of g (`engine.fiber_cycles`) whose
    multiplier modulus is below 1 - margin.  Returns (ok, worst_margin):
    the least 1 - |multiplier| over those cycles, 1 when every critical
    orbit escapes, and (False, 0.0) when some bounded critical orbit
    settles on no cycle or the critical points cannot be solved for.
    """
    if g.degree < 2:
        raise PreconditionError("degree must be >= 2 for the 1D test")
    return _fibers_hyperbolic([g], margin)


def _cluster(points_2d: np.ndarray, eps: float) -> np.ndarray:
    """Single-linkage cluster labels: connected components of the
    eps-neighbor graph in C^2 (Euclidean on R^4), numbered 0, 1, ... in
    order of their least member index.

    Repeated rows lie at distance 0 <= eps, so only the byte-distinct rows
    (in order of first occurrence) enter the graph; every row takes the
    label of its distinct row.
    """
    # imported here, as `sets._kdtree` imports scipy.spatial: scipy loads
    # on first use, so a subcommand that needs neither starts without it
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rows = _as_real(points_2d)
    keep, inverse = _distinct_rows(rows)
    i, j = _kdtree(rows[keep]).query_pairs(eps, output_type="ndarray").T
    graph = coo_matrix((np.ones(len(i), dtype=bool), (i, j)),
                       shape=(len(keep), len(keep)))
    # an undirected search labels components in order of their least node
    return connected_components(graph, directed=False)[1][inverse]


def _critical_points(f: SkewProduct, zs):
    """The fiber critical points over the base points zs, as (i, c): c[k]
    is a root of dq_z/dw at z = zs[i[k]], by base point and then in
    `roots`' order.  A base point is skipped where `roots` raises: dq_z/dw
    is constant or has a coefficient that is not finite, or a root misses
    its residual bound.

    dq_z/dw is evaluated over all base points in one `npoly.polyval`.  When
    it is linear, b0(z) + b1(z) w, every root is -b0/b1 (+0j where b0 = 0,
    the root `roots` peels off), taken at once and tested against `roots`'
    residual bound; otherwise `roots` runs per base point.
    """
    with np.errstate(all="ignore"):
        coef = npoly.polyval(np.asarray(zs, dtype=complex), f.q.dw().coeffs)
    if len(coef) != 2:
        i, c = [], []
        for k, dcoef in enumerate(coef.T):
            try:
                crits = roots(Poly1(dcoef))
            except (NumericalError, ValueError):
                continue
            i.extend([k] * len(crits))
            c.extend(crits)
        return np.array(i, dtype=int), np.array(c, dtype=complex)
    b0, b1 = coef
    with np.errstate(all="ignore"):  # as in `roots`
        x = -b0 / b1
        res = np.abs(b0 + (b1 + x * 0) * x)
        scale = np.maximum(np.maximum(np.abs(b0), np.abs(b1)), 1.0)
        bound = np.minimum(1e-10 * scale * np.maximum(1.0, np.abs(x)),
                           _FLOAT_MAX)
    ok = (b1 != 0) & np.isfinite(scale) & ((b0 == 0) | (res <= bound))
    i = np.flatnonzero(ok)
    return i, np.where(b0[i] == 0, 0j, x[i])


def _base_snap(p: Poly1, index: CloudIndex, starts: np.ndarray) -> dict:
    """Drift guard and exact-cycle table for forward base orbits.

    Long forward orbits on the expanding base Julia set leave it by float
    error alone, so iterates are only trusted while the base coordinate
    stays within a tolerance of the base sample.  Start points that are
    numerically periodic (period <= MAX_BASE_PERIOD) are stepped along their
    exact float cycle instead, which never drifts.

    The guard (`_near`) answers most queries from a table of cells: the
    sorted keys of the square cells of side h = tol/sqrt(2) (1 - 1e-6) that
    hold a distinct sample row.  Two points in one cell are closer than
    tol (1 - 7e-7), a margin far above the rounding of x/h.
    """
    spacing = index.spacing if len(index.inverse) > 1 else 0.0
    tol = max(5.0 * spacing, 1e-3)
    h = tol / math.sqrt(2.0) * (1.0 - 1e-6)
    inside, key = _cell_keys(index.distinct, h)
    # the sentinel 2**62 exceeds every key, so a search never runs off the end
    keys = np.append(np.unique(key[inside]), 2**62)
    keep, inverse = _distinct_rows(_as_real(starts))
    u = np.asarray(starts, dtype=complex)[keep]
    # array steps find the candidates; the scalar walk decides and builds
    # each cycle, in order of first occurrence among the starts
    near = np.zeros(len(u), dtype=bool)
    zk = u
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_BASE_PERIOD):
            zk = p(zk)
            near |= np.abs(zk - u) < 1e-6
    rows = np.full(len(u), -1, dtype=int)
    cycles: list[list] = []
    for i in np.flatnonzero(near):
        orbit = p.orbit(u[i], MAX_BASE_PERIOD + 1)
        for k in range(1, MAX_BASE_PERIOD + 1):
            if abs(orbit[k] - orbit[0]) < 1e-9:
                rows[i] = len(cycles)
                cycles.append(orbit[:k])
                break
    row = rows[inverse]
    lens = np.array([len(c) for c in cycles], dtype=int)
    pad = np.zeros((len(cycles), max(lens, default=1)), dtype=complex)
    for r, c in enumerate(cycles):
        pad[r, :len(c)] = c
    return {"index": index, "tol": tol, "h": h, "keys": keys, "row": row,
            "pad": pad, "lens": lens}


def _cell_keys(rows: np.ndarray, h: float):
    """The cell of side h of each real (n, 2) row, as (inside, key): only a
    cell whose coordinates both lie in (-2**30, 2**30), where x/h is exact
    to 2**-23 of a cell, is inside and has a key of its own; the key of
    any other row is that of cell (0, 0)."""
    with np.errstate(over="ignore", invalid="ignore"):
        cell = np.floor(rows / h)
    inside = (np.abs(cell) < 2.0**30).all(axis=1)
    c = np.where(inside[:, None], cell, 0.0).astype(np.int64) + 2**30
    return inside, c[:, 0] * 2**31 + c[:, 1]


def _near(snap: dict, rows: np.ndarray) -> np.ndarray:
    """Whether each real (n, 2) row lies within snap's tol of the base
    sample, as `index.query(rows)[0] <= tol`: True for a row that shares a
    cell with a sample row (`_base_snap`), the tree's answer for the rest.
    The tree looks no further than 2 tol, so it finds the nearest row, and
    its distance, whenever that row is within tol."""
    keys, tol = snap["keys"], snap["tol"]
    inside, key = _cell_keys(rows, snap["h"])
    near = inside & (keys[np.searchsorted(keys, key)] == key)
    rest = ~near
    if rest.any():
        d = snap["index"].tree.query(rows[rest], distance_upper_bound=2 * tol)
        near[rest] = d[0] <= tol
    return near


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

    The live orbits are held in compact arrays, the exactly periodic rows
    first, with their orbit indices; they are compacted only on a step
    where some orbit stops.  Periodic rows take their next base point from
    the cycle table and their fiber map from a table of the coefficients
    b_j of q evaluated once at every cycle point: `_horner` on the
    coefficients of the row's cycle phase is `Poly2.__call__` on bit-equal
    values.  The generic rows go through f.q, f.p and the drift
    test, which are skipped once none is live.  The drift test, `_near`,
    settles most rows from the cell table of the base sample and asks the
    KD-tree only for the rest.  Every value is computed as
    in an uncompacted walk, so the tails are bit-equal to it.

    A periodic row's state is its cycle phase and w.  Every `width` steps,
    a periodic row whose w_k has the bytes of w_{k-P} for some P < width
    that its cycle length divides (the least such P) repeats with period P
    from step k - P on: it never escapes, and its last `width` ring slots
    up to n_iter are filled from the stored period (gathered first, then
    scattered) and the row leaves the walk.  Each row is stepped on its own
    values, so retiring a row changes no other.
    """
    n = len(zs)
    esc = np.full(n, -1, dtype=int)
    end = np.full(n, n_iter, dtype=int)
    ring = np.zeros((n, width, 2), dtype=complex)
    w_bytes = ring.view(np.uint64)[:, :, 2:]  # a view: the ring's w, as bytes
    lag = np.arange(width - 1, -1, -1)  # at a step k = 0 mod width: k - step
    last = n_iter - width + 1 + np.arange(width)  # the steps a tail can hold
    radius, base_radius = params.radius, params.base_radius
    row, pad, lens = snap["row"], snap["pad"], snap["lens"]
    ids = np.argsort(row < 0, kind="stable")
    z = np.asarray(zs, dtype=complex)[ids]
    w = np.asarray(ws, dtype=complex)[ids]
    rp = row[row >= 0]  # cycle rows of the live periodic orbits, z[:m]
    m = len(rp)
    with np.errstate(over="ignore", invalid="ignore"):
        # b[:, r, t]: the w-coefficients of q over cycle r at phase t,
        # highest power first
        b = npoly.polyval(pad, f.q.coeffs)[::-1]
        lr = lens[rp]
        for k in range(1, n_iter + 1):
            if not len(ids):
                break
            phase = (k - 1) % lr
            wn = _horner(b[:, rp, phase], w[:m])
            zn = pad[rp, k % lr]
            wesc = ~(np.abs(wn) <= radius)  # beyond the radius, inf or NaN
            stop = wesc
            if len(ids) > m:
                wg = f.q(z[m:], w[m:])
                zg = f.p(z[m:])
                gesc = ~(np.abs(wg) <= radius)
                # drift test: the generic rows still bounded
                ask = ~gesc & (np.abs(zg) <= base_radius)
                if ask.any():
                    ask[ask] = _near(snap, _as_real(zg[ask]))
                wn, zn = np.concatenate([wn, wg]), np.concatenate([zn, zg])
                wesc = np.concatenate([wesc, gesc])
                stop = np.concatenate([stop, gesc | ~ask])
            if stop.any():
                esc[ids[wesc]] = k
                end[ids[stop]] = k - 1
                live = ~stop
                ids, zn, wn, rp = ids[live], zn[live], wn[live], rp[live[:m]]
                m = len(rp)
                lr = lens[rp]
            z, w = zn, wn
            ring[ids, (k - 1) % width, 0] = z
            ring[ids, (k - 1) % width, 1] = w
            if m and not k % width and k < n_iter:
                # step k sits in the last slot; per: the least lag at which
                # w repeats exactly, a multiple of the row's cycle length
                # (width if none)
                bits = w_bytes[ids[:m]]
                ok = (bits == bits[:, -1, None]).all(axis=2)
                ok &= (lag > 0) & (lag % lr[:, None] == 0)
                per = np.where(ok, lag, width).min(axis=1)
                done = per < width
                if done.any():
                    at, per = ids[:m][done, None], per[done, None]
                    src = np.where(last > k, k - (k - last) % per, last)
                    ring[at, (last - 1) % width] = ring[at, (src - 1) % width]
                    live = np.ones(len(ids), dtype=bool)
                    live[:m] = ~done
                    ids, z, w, rp = ids[live], z[live], w[live], rp[~done]
                    m = len(rp)
                    lr = lens[rp]
    count = np.minimum(np.ceil(TAIL_FRAC * end).astype(int), width)
    owner = np.repeat(np.arange(n), count)
    first = np.cumsum(count) - count
    step = end[owner] - count[owner] + 1 + np.arange(len(owner)) - first[owner]
    return esc, owner, step, ring[owner, (step - 1) % width]


def critical_locus(f: SkewProduct, base: PointCloud,
                   params: EscapeParams | None = None) -> CriticalLocus:
    """Fiber critical points over a base Julia sample, classified and
    clustered.

    For each base sample z, the roots of dq_z/dw (`_critical_points`: one
    vector solve at degree 2; a base point where `roots` fails is skipped)
    are classified by orbit escape; component ids come from single-linkage
    clustering in C^2 with threshold 3x the median nearest-neighbor base
    spacing (`_cluster`), and are numbered 0, 1, ... in order of each
    component's first orbit (by base point, then by root).  Each orbit is
    stepped once, for params.max_iter steps, by `_run_spans`: it is trusted
    only while the base coordinate stays near the base sample (exactly
    periodic base points never drift, and are stepped on a coefficient
    table of their cycle); an orbit whose fiber coordinate has not escaped
    by the end of its trusted span counts as bounded.  Every orbit's tail,
    escaping or not, is the last quarter of its trusted span, at most
    TAIL_LEN steps; `apt_cloud` and `acc_cloud` both read these tails.
    """
    if params is None:
        params = derive_escape_radius(f)
    i, cs = _critical_points(f, base.points)
    zs = base.points[i]
    index = CloudIndex(_as_real(base.points))
    labels = _cluster(np.column_stack([zs, cs]), 3.0 * index.spacing)
    snap = _base_snap(f.p, index, zs)
    esc, owner, step, tail = _run_spans(f, zs, cs, params.max_iter, params,
                                        snap, TAIL_LEN)
    return CriticalLocus(z=zs, c=cs, component=labels, bounded=esc < 0,
                         tail=tail, owner=owner, step=step,
                         spacing=index.spacing)


def _add_states(table: dict, j: np.ndarray, w: np.ndarray):
    """The id of each state (j[k], w[k]) in `table`, a dict from a state's
    bytes (base-sample index, then w) to its id, as (ids, jt, wt): a state
    not yet in the table takes the next id, in order of first occurrence,
    and jt, wt hold those new states in id order.  Keys are bytes, so
    w = 0.0 and w = -0.0 are different states."""
    key = np.empty((len(j), 3), dtype=np.uint64)
    key[:, 0] = j
    key[:, 1:] = w.view(np.uint64).reshape(-1, 2)
    n = len(table)
    ids = np.array([table.setdefault(k, len(table))
                    for k in key.view(np.dtype((np.void, 24))).ravel().tolist()],
                   dtype=int)
    u, at = np.unique(ids, return_index=True)
    at = at[u >= n]
    return ids, j[at], w[at]


def postcritical_cloud(f: SkewProduct, base: PointCloud, n_iter: int = 200,
                       params: EscapeParams | None = None) -> PointCloud:
    """Forward images of the fiber critical points over a base Julia
    sample, 1 <= k <= n_iter, pruned of fiber-escaped points: step by step,
    and at each step by critical orbit.

    The critical points are those of `critical_locus` (`_critical_points`
    over base.points), in its order, but their orbits are not classified:
    the postcritical set takes every critical orbit, escaping or not.  A
    base sample with no critical point raises PreconditionError.

    The base coordinate is re-projected onto the nearest base sample point
    after every step (a pseudo-orbit on the sampled base Julia set), so
    orbits never drift off the expanding base and terminal iterates land on
    the densely sampled attracting part — keeping the cloud numerically
    forward-invariant at its own resolution.

    The pseudo-orbit is a map on base-sample indices.  Step 1 starts from
    the critical points' own z; from there every row's z is a base sample,
    whose successor (the base sample nearest its image under p) and fiber
    coefficients are tabulated once, so each later step is Horner in w on
    the table.  The table takes one KD-tree query per call, and the step-1
    images one more, whatever n_iter is.

    Two rows with the same base-sample index and the same w bytes have the
    same future, and the rows are mostly such repeats: the walk holds each
    critical orbit as the id of its state, and steps each distinct state
    once, the first time some orbit reaches it; later steps only look up
    its successor.  The cloud is returned as its distinct rows, in order of
    first occurrence, with the `inverse` of the full row sequence
    (`PointCloud`), so the rows are bit-equal to stepping every orbit.
    """
    i, ws = _critical_points(f, base.points)
    if not len(i):
        raise PreconditionError("empty critical locus")
    if params is None:
        params = derive_escape_radius(f)
    if n_iter < 1:
        return PointCloud(np.zeros((0, 2), dtype=complex),
                          inverse=np.zeros(0, dtype=int))
    radius, base_radius = params.radius, params.base_radius
    zs = base.points[i]
    base_pts = np.unique(zs)
    index = CloudIndex(_as_real(base_pts))

    def bounded(x, r):
        return np.isfinite(x) & (np.abs(x) <= r)

    with np.errstate(over="ignore", invalid="ignore"):
        # np.unique merges 0.0 and -0.0, so a sample's z need not have the
        # bytes of its base sample: step 1 runs on the samples' own z
        zn, w = f.p(zs), f.q(zs, ws)
        ok = bounded(zn, base_radius) & bounded(w, radius)
        j, w = index.query(_as_real(zn[ok]))[1], w[ok]
        # succ[i]: the base sample nearest p(base_pts[i]), where that lies
        # within the base radius; b[:, i]: the w-coefficients of q over
        # base_pts[i], highest power first
        pz = f.p(base_pts)
        okz = bounded(pz, base_radius)
        succ = np.zeros(len(base_pts), dtype=int)
        succ[okz] = index.query(_as_real(pz[okz]))[1]
        b = npoly.polyval(base_pts, f.q.coeffs)[::-1]
        # s: the state id of each live orbit; nxt[t]: the successor of state
        # t, -1 where its orbit stops; jt, wt: the states first reached at
        # this step, whose successors nxt does not hold yet
        table = {}
        s, jt, wt = _add_states(table, j, w)
        js, wts, rows = [jt], [wt], [s]
        nxt = np.zeros(0, dtype=int)
        for _ in range(n_iter - 1):
            if not len(s):
                break
            if len(jt):
                wt = _horner(b[:, jt], wt)
                ok = okz[jt] & bounded(wt, radius)
                t = np.full(len(jt), -1)
                t[ok], jt, wt = _add_states(table, succ[jt[ok]], wt[ok])
                nxt = np.concatenate([nxt, t])
                js.append(jt)
                wts.append(wt)
            s = nxt[s]
            s = s[s >= 0]
            rows.append(s)
    points = np.column_stack([base_pts[np.concatenate(js)],
                              np.concatenate(wts)])
    return PointCloud(points, inverse=np.concatenate(rows))


def apt_cloud(locus: CriticalLocus) -> PointCloud:
    """Union of the omega-tails of the bounded critical orbits (pointwise
    accumulation), by orbit and then by step; empty when every critical
    orbit escapes."""
    return PointCloud(locus.tail[locus.bounded[locus.owner]])


def acc_cloud(locus: CriticalLocus,
              w_bound: float | None = None) -> PointCloud:
    """Per-component accumulation: the tails of every member of each
    critical-locus cluster, union over clusters, read from the walk of
    `critical_locus`.

    An all-escaped component contributes nothing, matching the
    all-or-nothing component criterion.  Any other component contributes
    the tail of each member, bounded or escaping — for escapers the tail
    ends just before fiber escape, so slow escapers shadowing the unstable
    set of the saddle part are retained.  The points are listed by
    component, in id order, then by step, then by member, in locus order.
    Fiber coordinates above w_bound (transient fly-out positions) are
    pruned.
    """
    if not len(locus):
        raise PreconditionError("empty critical locus")
    comp = locus.component
    member = np.bincount(comp, weights=locus.bounded)[comp] > 0
    keep = member[locus.owner]
    owner, pts = locus.owner[keep], locus.tail[keep]
    pts = pts[np.lexsort((owner, locus.step[keep], comp[owner]))]
    if w_bound is not None:
        pts = pts[np.abs(pts[:, 1]) <= w_bound]
    return PointCloud(pts)


def acc_full_probe(
    f: SkewProduct,
    z_target,
    branch_policy,
    depth: int = 40,
    params: EscapeParams | None = None,
) -> PointCloud:
    """Full-locus accumulation probe into the fiber of z_target.

    Builds a backward base orbit z_{-1}, ..., z_{-depth} of z_target using
    branch_policy, a symbol string indexing regions in f.meta["regions"],
    cycled: z_{-k} is the preimage of z_{-k+1} (every branch of
    `sets._branch`: the quadratic formula at degree 2, `roots` above it)
    nearest the center of its symbol's region.  Places the fiber critical
    point over each z_{-k}, and pushes it forward k steps.
    Returns the last PROBE_TAIL_FRAC fraction of the resulting points, all
    lying in the fiber of z_target; a point whose orbit leaves the escape
    radius is dropped.

    The critical points come from `_critical_points` over the whole chain,
    and a chain point where `roots` fails raises what `roots` raised.  The
    fiber maps over the chain are evaluated once, and each probe is pushed
    by `Poly1.step`, bit-equal to evaluating the fiber map with
    `npoly.polyval` at every step.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if params is None:
        params = derive_escape_radius(f)
    zt = complex(z_target)
    regions = f.meta.get("regions", {})
    back = []  # back[k-1] = z_{-k}
    z = zt
    for k in range(1, depth + 1):
        cands = _branch(f.p.coeffs, np.array([z])).ravel()
        sym = branch_policy[(k - 1) % len(branch_policy)]
        if sym not in regions:
            raise PreconditionError(f"unknown region symbol {sym!r}")
        z = complex(cands[np.argmin(np.abs(cands - regions[sym]))])
        back.append(z)
    back = np.array(back)
    owner, crits = _critical_points(f, back)
    missed = np.setdiff1d(np.arange(depth), owner)
    with np.errstate(all="ignore"):
        if len(missed):  # raise what `roots` raises over that base point
            roots(Poly1(npoly.polyval(back[missed[0]], f.q.dw().coeffs)))
        # maps[k-1] is the fiber map over z_{-k}
        maps = [Poly1(c) for c in npoly.polyval(back, f.q.coeffs).T]
    # push each (z_{-k}, c) forward exactly k steps with `Poly1.step`,
    # replaying the stored backward chain for the base coordinate (forward
    # base iteration would amplify float error past usefulness on a
    # strongly expanding base)
    ws = []  # in order of k, as owner is
    for j, c0 in zip(owner, crits):
        ww = complex(c0)
        for g in maps[j::-1]:
            ww = g.step(ww)
            if not abs(ww) <= params.radius:  # beyond the radius, inf or NaN
                break
        else:
            ws.append(ww)
    ws = np.array(ws, dtype=complex)[int(len(ws) * (1.0 - PROBE_TAIL_FRAC)):]
    return PointCloud(np.column_stack([np.full(len(ws), zt), ws]))


def find_saddles(f: SkewProduct, max_base_period: int = MAX_BASE_PERIOD):
    """Saddle periodic orbits: base-repelling, fiber-attracting cycles.

    Scans the repelling base points z of period dividing n, for
    n <= max_base_period (`engine.repelling_cycles`), skipping a z within
    1e-9 of a base orbit already scanned, so each base cycle is scanned
    once, from its first point in the order below.  Over each, the cycles
    of the fiber maps along its base orbit (`engine.fiber_cycles`, which
    walks their critical orbits) with vertical multiplier modulus below
    1 - DEFAULT_MARGIN are saddles.  A fiber cycle can have any length that
    is a multiple of n, up to the tail search's CYCLE_MAX_PERIOD multiples;
    no other cap on the fiber period remains.  A cycle that shares a point
    (to 1e-6) with an earlier saddle is dropped, so each orbit appears once.

    Canonical order, which `saddles.json` lists and `continue --orbit`
    indexes: by n; then by base point z, in `repelling_cycles`' order (the
    roots of p^n(z) - z sorted by real, then imaginary part); then by cycle
    length; then by fiber point, by real, then imaginary part.  The fiber
    point is the least, in that order, of the cycle's points over z, and the
    cycle starts there.
    """
    saddles, scanned = [], []
    for n in range(1, max_base_period + 1):
        for z, orbit_z, mu_base in repelling_cycles(f.p, n):
            if any(abs(z - y) < 1e-9 for y in scanned):
                continue  # on a base orbit already scanned
            scanned.extend(orbit_z)
            cycles, _ = fiber_cycles([fiber_poly(f, zk) for zk in orbit_z])
            for ws, mu_v in cycles:
                if abs(mu_v) >= 1.0 - DEFAULT_MARGIN:
                    continue
                cyc = np.column_stack([np.resize(orbit_z, len(ws)), ws])
                if any(np.min(np.abs(s.cycle[None, :, 0] - cyc[:, None, 0])
                              + np.abs(s.cycle[None, :, 1] - cyc[:, None, 1]))
                       < 1e-6 for s in saddles):
                    continue
                saddles.append(
                    SaddleOrbit(
                        base_period=n,
                        base_point=complex(z),
                        fiber_point=complex(ws[0]),
                        base_multiplier=mu_base,
                        vertical_multiplier=mu_v,
                        cycle=cyc,
                    )
                )
    return saddles


def _fibers_hyperbolic(maps: list, margin: float):
    """Hyperbolicity of the periodic map sequence maps (clause (iii) over
    one base cycle, whose fiber maps are maps; with one map, clauses (i)
    and (iv)): every critical orbit of the sequence must escape or settle
    on a cycle (`engine.fiber_cycles`) whose multiplier modulus is below
    1 - margin.  Returns (ok, worst margin): 0 when some bounded critical orbit settles
    on no cycle, else the least 1 - |multiplier| over the cycles, 1 when
    every critical orbit escapes."""
    cycles, undetermined = fiber_cycles(maps)
    if undetermined:
        return False, 0.0
    worst = min((1.0 - abs(mult) for _, mult in cycles), default=1.0)
    return worst >= margin, worst


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
    the base Julia sample (`postcritical_cloud`, which does not classify
    the critical orbits: the postcritical set takes escaping and bounded
    ones alike) keeps chordal distance > margin from the J2 cloud; (iii)
    the fiber map sequence over each base cycle on which the critical
    orbits of p settle is hyperbolic (`_fibers_hyperbolic`); (iv)
    the induced map on the line at infinity is hyperbolic.  Verdict
    Certified-C2 needs (i)-(iii); Certified-P2 also needs (iv); fewer than
    1000 postcritical samples gives Inconclusive.
    """
    if params is None:
        params = derive_escape_radius(f)
    clauses = {}
    ok_i, m_i = attract_or_escape_1d(f.p, margin)
    clauses["i"] = {"pass": bool(ok_i), "margin": float(m_i)}
    pc = postcritical_cloud(f, base, params=params)
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
    ok_iii, m_iii = True, 1.0
    for cyc, _ in fiber_cycles([f.p])[0]:
        ok, m = _fibers_hyperbolic([fiber_poly(f, z) for z in cyc], margin)
        ok_iii = ok_iii and ok
        m_iii = min(m_iii, m)
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


def _rings(centers: np.ndarray, r: float, ring: np.ndarray):
    """Points (z, w) on a vertical circle of chordal radius about r around
    each center (zc, wc), one row of len(ring) per center, flattened: the
    radius starts at (r / 2)(1 + |wc|^2) and is rescaled 8 times by r over
    the largest chordal distance on the circle.

    |wc|^2 is taken per center as abs(wc) ** 2, a C pow() of a scalar,
    which differs from the x * x of numpy's array square in the last bit
    for about 1 in 1,000 values; the rest runs on all rings at once."""
    zc, wc = centers[:, 0], centers[:, 1, None]
    sq = np.array([[abs(w) ** 2] for w in centers[:, 1]])
    rho = (r / 2.0) * (1.0 + sq)
    for _ in range(8):
        wprim = wc + rho * ring
        ch = chordal_distance(np.repeat(wc, len(ring), axis=1), wprim)
        rho = rho * r / np.maximum(ch.max(axis=1, keepdims=True), 1e-300)
    return np.repeat(zc, len(ring)), (wc + rho * ring).ravel()


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

    The cloud is read as its points and the `inverse` of its rows
    (`PointCloud`; without one, every row is its own point).  Postcritical
    clouds are mostly repeated points, and equal rows have equal images:
    the invariance check maps and queries each point once and spreads the
    result over the rows through the inverse; the repeat-aware spacing
    comes from the inverse, and the rings go around the distinct points
    among a stride of the rows.  So the report is the one a row-by-row
    check gives, bit for bit.
    """
    if t_cloud.dim != 2 or len(t_cloud) == 0:
        raise PreconditionError("t_cloud must be a nonempty 2D cloud")
    pts, inverse = t_cloud.points, t_cloud.inverse
    if inverse is None:
        inverse = np.arange(len(pts))
    # two different rows can embed to the same sphere point: the index
    # groups the embedded points by their own bytes
    index = CloudIndex(sphere_embed(pts), inverse)
    spacing = 0.0
    nn = np.zeros(len(t_cloud))
    if len(t_cloud) > 1:
        nn = index.nn_distances()
        spacing = index.spacing
    # forward invariance up to the cloud's local resolution at each point
    zi, wi = pts.T
    with np.errstate(over="ignore", invalid="ignore"):
        z1, w1 = f.p(zi), f.q(zi, wi)
    dinv = index.query(sphere_embed(np.column_stack([z1, w1])))[0][inverse]
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
    # vertical chordal r-circle samples around the distinct points of a
    # deterministic stride of the cloud; the distance index still holds
    # the full cloud
    max_centers = 1000
    stride = max(1, len(t_cloud) // max_centers)
    strided = inverse[::stride]
    first = np.sort(np.unique(strided, return_index=True)[1])
    centers = pts[strided[first]]
    n_ring = 32
    phis = 2.0 * np.pi * np.arange(n_ring) / n_ring
    z, w = _rings(centers, r, np.exp(1j * phis))
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
