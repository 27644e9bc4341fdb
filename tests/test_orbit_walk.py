"""The critical-orbit walks against the code they replaced.

`_ref_run_spans` finds where each orbit stops and `_ref_collect_windows`
replays every orbit from step 1 to collect its tail, stepping every row
with `poly2_reference`, the evaluation of q that `Poly2.__call__` ran
before `poly._horner`; `_run_spans` must give the same escape steps and
bit-equal tails in one pass, with its periodic rows stepped from a
coefficient table, and `acc_cloud`, which reads the tails of
`critical_locus`'s walk, must equal a per-component walk of the members.
`critical_locus`'s record of arrays must hold, bit for bit, what its list
of per-point samples held, and give the same apt and acc clouds and the
same probe band.
`_base_snap` must give every start the cycle, bit for bit, that the
per-start loop gave.  `_critical_points` must keep, bit for bit, what the
per-point `roots()` loop kept, and `acc_full_probe` must equal its old
per-step `fiber_poly` loop, exceptions included.  `postcritical_cloud`'s
walk on base-sample indices must give, bit for bit, the rows of the
per-step snap loop it replaced, with at most two KD-tree queries, stored
as the byte-distinct rows in order of first occurrence and their inverse.
`fiber_cycles`, which stops each walk at its first exact float repeat, and
`_run_spans`, which retires exactly repeating periodic rows, must give
what their full walks gave, bit for bit (`_ref_fiber_cycles`,
`_ref_run_spans`), and `_tail_period` what its per-period loop gave.
"""

import contextlib
import dataclasses
import math
from collections import deque
from unittest import mock

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from conftest import poly2_reference
from hypothesis import example, given, settings, strategies as st

from skewdyn import critpost
from skewdyn.chain import repelling_periodic_points
from skewdyn.critpost import (
    PROBE_TAIL_FRAC,
    TAIL_FRAC,
    TAIL_LEN,
    _base_snap,
    _cluster,
    _critical_points,
    _near,
    _run_spans,
    acc_cloud,
    acc_full_probe,
    apt_cloud,
    certify_axiom_a,
    critical_locus,
    postcritical_cloud,
)
from skewdyn.engine import (
    CYCLE_MAX_PERIOD,
    CYCLE_TAIL_LEN,
    CYCLE_TOL,
    DEFAULT_MAX_ITER,
    _critical_walk,
    _one_var_radius,
    _sequence_cycle,
    _tail_period,
    derive_escape_radius,
    fiber_cycles,
)
from skewdyn.errors import NumericalError
from skewdyn.families import (build_s1s2, make_airplane_skew, make_Fa,
                              make_fig3, make_product)
from skewdyn.poly import Poly1, Poly2, SkewProduct, fiber_poly, roots
from skewdyn.sets import (CloudIndex, PointCloud, _as_real, _branch,
                          _distinct_rows, sample_J2_inverse, sample_base_julia)


def _ref_step_tracked(f, z, w, k, idx, snap):
    za, wa = z[idx], w[idx]
    wn = poly2_reference(f.q, za, wa)
    zn = f.p(za)
    ra = snap["row"][idx]
    per = ra >= 0
    if per.any():
        zn[per] = snap["pad"][ra[per], k % snap["lens"][ra[per]]]
    return zn, wn, per


def _ref_run_spans(f, zs, ws, n_iter, params, snap):
    z = np.asarray(zs, dtype=complex).copy()
    w = np.asarray(ws, dtype=complex).copy()
    n = len(z)
    esc = np.full(n, -1, dtype=int)
    live_end = np.full(n, n_iter, dtype=int)
    alive = np.ones(n, dtype=bool)
    radius, base_radius = params.radius, params.base_radius
    index, tol = snap["index"], snap["tol"]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_iter + 1):
            if not alive.any():
                break
            idx = np.where(alive)[0]
            zn, wn, per = _ref_step_tracked(f, z, w, k, idx, snap)
            wesc = (~np.isfinite(wn.real) | ~np.isfinite(wn.imag)
                    | (np.abs(wn) > radius))
            drift = np.zeros(len(idx), dtype=bool)
            gen = ~per & ~wesc
            if gen.any():
                zg = zn[gen]
                finite = (np.isfinite(zg.real) & np.isfinite(zg.imag)
                          & (np.abs(zg) <= base_radius))
                dd = np.full(gen.sum(), np.inf)
                if finite.any():
                    dd[finite] = index.query(_as_real(zg[finite]))[0]
                drift[gen] = dd > tol
            esc[idx[wesc]] = k
            live_end[idx[wesc | drift]] = k - 1
            alive[idx[wesc | drift]] = False
            z[idx], w[idx] = zn, wn
    return esc, live_end


def _ref_collect_windows(f, zs, ws, starts, ends, snap, per_point=False):
    z = np.asarray(zs, dtype=complex).copy()
    w = np.asarray(ws, dtype=complex).copy()
    n = len(z)
    chunks, owners = [], []
    nmax = int(ends.max()) if n else 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, nmax + 1):
            act = ends >= k
            if not act.any():
                break
            idx = np.where(act)[0]
            zn, wn, _ = _ref_step_tracked(f, z, w, k, idx, snap)
            z[idx], w[idx] = zn, wn
            rec = starts[idx] <= k
            if rec.any():
                chunks.append(np.column_stack([zn[rec], wn[rec]]))
                owners.append(idx[rec])
    if not chunks:
        if per_point:
            return [np.zeros((0, 2), dtype=complex) for _ in range(n)]
        return np.zeros((0, 2), dtype=complex)
    pts = np.concatenate(chunks)
    if not per_point:
        return pts
    own = np.concatenate(owners)
    order = np.argsort(own, kind="stable")
    own_s, pts_s = own[order], pts[order]
    bounds = np.searchsorted(own_s, np.arange(n + 1))
    return [pts_s[bounds[i]:bounds[i + 1]] for i in range(n)]


def _ref_tail_starts(ends, tail_frac, tail_cap=None):
    span = np.maximum(ends, 0)
    width = np.ceil(tail_frac * span).astype(int)
    if tail_cap is not None:
        width = np.minimum(width, tail_cap)
    return np.maximum(ends - width + 1, 1)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


_MAPS = {
    "Fa(-1)": make_Fa(-1),
    "Fa(0.3+0.2i)": make_Fa(0.3 + 0.2j),
    "Fa(2)": make_Fa(2),
    "z^2 x w^2-1": make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1])),
    "z^2-1 x w^2-0.5": make_product(Poly1([-1, 0, 1]), Poly1([-0.5, 0, 1])),
    "z^2-1 x w^2+i": make_product(Poly1([-1, 0, 1]), Poly1([1j, 0, 1])),
    # over the base 2-cycle 0 <-> -1 the fiber maps are w^2 and w^2 - 1:
    # w = 0 over z = 0 runs 0, 0, -1, 1, 0, 0, ..., period 4, and repeats
    # after one step, a lag its cycle length 2 does not divide
    "z^2-1 x w^2+z": SkewProduct(Poly1([-1, 0, 1]),
                                 Poly2([[0, 0, 1], [1, 0, 0]])),
    # the two-piece map: its base sample sits at |z| ~ 8192, and p(8200) at
    # 4.2e6, beyond the cell table's 2**30 cells of the drift guard
    "s1s2": build_s1s2(Poly1([0, 0, 1]), Poly1([-1, 0, 1]), 1, 1)[0],
}
_BASES = {}


def _base(name):
    if name not in _BASES:
        f = _MAPS[name]
        pts = sample_base_julia(f.p, 60, seed=1).points
        _BASES[name] = (pts, derive_escape_radius(f, base_points=pts))
    return _BASES[name]


# exactly periodic base points (rows stepped along their cycle), points off
# the base Julia set (drift at step 1), and fiber starts beyond any escape
# radius used here (escape at step 1)
_W3 = np.exp(2j * np.pi / 3)
_Z7 = np.exp(2j * np.pi / 7)  # a 3-cycle of z^2: 1/7 -> 2/7 -> 4/7 turns
_SPECIAL_Z = [1.0, _W3, _W3.conjugate(), 0.0, -1.0, 0.5, 0.3 + 0.1j, _Z7,
              8200.0]
_SPECIAL_W = [0.0, -1.0, 0.5j, 1e6]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_MAPS)),
    n_iter=st.integers(0, 300),
    width=st.integers(1, 8),
    picks=st.lists(st.tuples(st.integers(0, 59 + len(_SPECIAL_Z)),
                             st.one_of(st.integers(0, len(_SPECIAL_W) - 1),
                                       st.complex_numbers(max_magnitude=3.0))),
                   min_size=1, max_size=25),
)
# a single orbit, so every array of the walk has one element
@example(name="z^2 x w^2-1", n_iter=40, width=5, picks=[(0, 1)])
# only exactly periodic rows survive step 1 (0.5 drifts): the fixed points
# 1 and 0 and the 2-cycle of cube roots of 1, over the basilica's 0 <-> -1
@example(name="z^2 x w^2-1", n_iter=40, width=8,
         picks=[(60, 0), (65, 0), (61, 0), (63, 0), (62, 1)])
# one periodic row and one drifting row: a lone periodic row survives
@example(name="z^2 x w^2-1", n_iter=40, width=8, picks=[(65, 0), (60, 0)])
# only periodic rows of cycle lengths 1, 2 and 3 survive (0.5 drifts), over
# fiber maps that depend on z: the table has a column per cycle phase
@example(name="Fa(0.3+0.2i)", n_iter=40, width=8,
         picks=[(67, 0), (61, 1), (65, 0), (60, 2), (62, 0), (67, 3)])
# exactly one periodic row survives, over the 3-cycle: the other periodic
# rows escape at step 1 and the generic row drifts (numpy rounds a product
# of one element in place other than out of place)
@example(name="Fa(0.3+0.2i)", n_iter=40, width=3,
         picks=[(61, 3), (67, 0), (65, 0), (60, 3), (62, 3)])
# periodic rows retire: w = 0 over z = 0 repeats at lags 1 and 4, and only
# 4 is a multiple of its cycle length; n_iter is no multiple of width, and
# the row retires at step 5, 20 steps before its last ring slot is due
@example(name="z^2-1 x w^2+z", n_iter=23, width=5, picks=[(63, 0)])
@example(name="z^2-1 x w^2+z", n_iter=300, width=5,
         picks=[(63, 0), (64, 0), (63, 1), (3, 0), (64, 2)])
# periodic rows of Fa(0.3+0.2i) on cycles of length 1, 2 and 3 retire at
# different checks, mid-walk and within the last width steps
@example(name="Fa(0.3+0.2i)", n_iter=298, width=8,
         picks=[(67, 0), (61, 1), (65, 0), (60, 2), (62, 0), (67, 3), (5, 0)])
# s1s2: over z = 8200, w = sqrt(-q(8200, 0)) stays bounded at step 1, and the
# drift guard asks the tree for p(8200), outside the cell table; the sample
# rows' images are settled from the table
@example(name="s1s2", n_iter=40, width=5,
         picks=[(68, -2052.4911408589796j), (0, 0), (7, 1), (3, 2)])
def test_run_spans_matches_two_pass_walk(name, n_iter, width, picks):
    f = _MAPS[name]
    pts, params = _base(name)
    zs = np.array([pts[i] if i < 60 else _SPECIAL_Z[i - 60]
                   for i, _ in picks], dtype=complex)
    ws = np.array([_SPECIAL_W[w] if isinstance(w, int) else w
                   for _, w in picks], dtype=complex)
    snap = _base_snap(f.p, CloudIndex(_as_real(pts)), zs)

    esc, owner, step, tail = _run_spans(f, zs, ws, n_iter, params, snap,
                                        width)
    ref_esc, ends = _ref_run_spans(f, zs, ws, n_iter, params, snap)
    starts = _ref_tail_starts(ends, TAIL_FRAC, tail_cap=width)
    ref = _ref_collect_windows(f, zs, ws, starts, ends, snap, per_point=True)

    assert np.array_equal(esc, ref_esc)
    assert np.array_equal(owner, np.repeat(np.arange(len(zs)),
                                           [len(t) for t in ref]))
    assert np.array_equal(step, np.concatenate(
        [np.arange(s, e + 1) for s, e in zip(starts, ends)]).astype(int))
    assert tail.shape == (len(owner), 2) and tail.dtype == complex
    for i, t in enumerate(ref):
        assert np.array_equal(_bits(tail[owner == i]), _bits(t))


def _cell_side(tol):
    """The side of `_base_snap`'s cells for a drift tolerance tol."""
    return tol / math.sqrt(2.0) * (1.0 - 1e-6)


_H_FLOOR = _cell_side(1e-3)  # the cell side at tol's floor, 1e-3


@st.composite
def near_cases(draw):
    """Base sample rows for `_base_snap`, and the angles and the far row
    that `_near_queries` adds.

    The rows lie on a lattice of step `unit` (a cell side at tol's 1e-3
    floor among them), some with a shift beyond 2**30 cells, with
    repeats, a lone row, or the four signed zeros; lattices of step 1e-4
    or less put tol at its floor (5 x spacing < 1e-3), coarser ones above.
    """
    unit = draw(st.sampled_from([_H_FLOOR, 1e-3, 1e-4, 3e-7, 0.37, 2.0**-9]))
    ks = draw(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                       min_size=1, max_size=10))
    rows = np.array(ks, dtype=float) * unit
    far = draw(st.lists(st.booleans(), min_size=len(ks), max_size=len(ks)))
    shift = draw(st.sampled_from([2.0**31, -3.0e9, 7.5e11]))
    rows[np.array(far), 0] += shift * _H_FLOOR
    if draw(st.booleans()):
        rows = np.concatenate([rows, [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0],
                                      [0.0, 0.0]]])
    reps = draw(st.lists(st.integers(0, len(rows) - 1), max_size=12))
    rows = np.concatenate([rows, rows[reps]])
    angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=1, max_size=4))
    far_q = draw(st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=2))
    return rows, angles, far_q


def _near_queries(rows, tol, h, angles, far_q):
    """Query rows around every sample row s: a lattice of step tol/8 out to
    1.5 tol; the corners of the cells of side h about s's cell; points at
    distance tol from s along the axes and at `angles`, each also one ulp
    inside and outside; far rows, and rows beyond 2**30 cells of side h."""
    g = np.arange(-12, 13) * (tol / 8)
    lattice = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    c = np.arange(-1, 3) * h
    corners = np.stack(np.meshgrid(c, c), axis=-1).reshape(-1, 2)
    a = np.concatenate([[0, np.pi / 2, np.pi, 3 * np.pi / 2], angles])
    ring = tol * np.column_stack([np.cos(a), np.sin(a)])
    out = []
    for s in np.unique(rows, axis=0):
        on = s + ring
        out += [s + lattice, np.floor(s / h) * h + corners, on,
                np.nextafter(on, s), np.nextafter(on, 2 * on - s)]
    edge = 2.0**30 * h
    out.append(np.array([far_q, [edge, 0.0], [-edge, far_q[1]],
                         [np.nextafter(edge, 0), 0.0], [edge * 3, -edge]]))
    return np.concatenate(out)


@settings(max_examples=80, deadline=None)
@given(near_cases())
# a lone row at the origin, tol at its floor
@example((np.zeros((1, 2)), [0.0], [5e-4, 5e-4]))
def test_near_equals_tree_within_tol(case):
    rows, angles, far_q = case
    snap = _base_snap(Poly1([0, 0, 1]), CloudIndex(rows), np.zeros(0))
    tol = snap["tol"]
    q = _near_queries(rows, tol, _cell_side(tol), angles, far_q)
    want = snap["index"].query(q)[0] <= tol
    assert np.array_equal(_near(snap, q), want)


def _ref_base_snap_cycles(p, starts):
    """The per-start loop that `_base_snap` replaced: each start's exact
    float cycle of period <= 3, or None."""
    out, cache = [], {}
    for z0 in map(complex, starts):
        if z0 not in cache:
            orbit = p.orbit(z0, 4)
            cache[z0] = next((np.array(orbit[:k], dtype=complex)
                              for k in range(1, 4)
                              if abs(orbit[k] - z0) < 1e-9), None)
        out.append(cache[z0])
    return out



@pytest.mark.parametrize("p, periodic, others", [
    # z^2: the fixed points 1 and 0, the 2-cycle of cube roots of 1 and a
    # 3-cycle; then starts 1e-8 off a cycle, a preperiodic and an
    # attracted start
    (Poly1([0, 0, 1]), [1.0, 0.0, _W3, _W3.conjugate(), _Z7, _Z7 ** 2],
     [1.0 + 1e-8, _W3 + 1e-8j, -1.0, 0.5]),
    # z^2 - 1: the 2-cycle 0 <-> -1 and the fixed points (1 +- sqrt 5) / 2
    (Poly1([-1, 0, 1]), [0.0, -1.0, (1 + 5 ** 0.5) / 2, (1 - 5 ** 0.5) / 2],
     [1e-8, -1.0 + 1e-8j, 1.0, 2.0]),
])
def test_base_snap_matches_per_start_loop(p, periodic, others):
    # the special starts, a base sample, and 120 repeats drawn from both
    rng = np.random.default_rng(3)
    sample = sample_base_julia(p, 40, seed=2).points
    pool = np.concatenate([np.array(periodic + others, dtype=complex),
                           sample])
    starts = np.concatenate([pool, pool[rng.integers(0, len(pool), 120)]])
    snap = _base_snap(p, CloudIndex(_as_real(sample)), starts)
    ref = _ref_base_snap_cycles(p, starts)
    k = len(periodic)
    assert all(c is not None for c in ref[:k])
    assert all(c is None for c in ref[k:k + len(others)])
    row, pad, lens = snap["row"], snap["pad"], snap["lens"]
    for i, cyc in enumerate(ref):
        if cyc is None:
            assert row[i] == -1, starts[i]
        else:
            got = pad[row[i], :lens[row[i]]]
            assert np.array_equal(_bits(got), _bits(cyc)), starts[i]


def _ref_acc_cloud(f, base, locus, params, w_bound):
    """`acc_cloud` by its definition, one component at a time: the tails of
    the members of each component that holds a bounded orbit, each member
    walked for params.max_iter steps under the drift guard of
    `critical_locus` (its base sample, its tolerance) and keeping the last
    TAIL_FRAC of its trusted span in at most TAIL_LEN slots."""
    index = CloudIndex(_as_real(base.points))
    parts = []
    for cid in np.unique(locus.component):
        members = locus.component == cid
        if not locus.bounded[members].any():
            continue
        zs, ws = locus.z[members], locus.c[members]
        snap = _base_snap(f.p, index, zs)
        _, ends = _ref_run_spans(f, zs, ws, params.max_iter, params, snap)
        starts = _ref_tail_starts(ends, TAIL_FRAC, tail_cap=TAIL_LEN)
        pts = _ref_collect_windows(f, zs, ws, starts, ends, snap)
        if w_bound is not None and len(pts):
            pts = pts[np.abs(pts[:, 1]) <= w_bound]
        if len(pts):
            parts.append(pts)
    if not parts:
        return np.zeros((0, 2), dtype=complex)
    return np.concatenate(parts)


def test_acc_cloud_batch_equals_per_component_loop():
    f = make_airplane_skew(3)
    base = PointCloud(np.concatenate([
        sample_base_julia(f.p, 300, seed=4).points,
        repelling_periodic_points(f.p)]))
    params = derive_escape_radius(f, base_points=base.points)
    crit = critical_locus(f, base, params=params)
    comps = set(crit.component.tolist())
    mixed = set(crit.component[crit.bounded].tolist())
    assert len(comps) > 20 and 0 < len(mixed) < len(comps)
    for w_bound in (None, 3.0):
        got = acc_cloud(crit, w_bound=w_bound).points
        ref = _ref_acc_cloud(f, base, crit, params, w_bound)
        assert len(ref) > 0
        assert got.shape == ref.shape
        assert np.array_equal(_bits(got), _bits(ref))


@dataclasses.dataclass(frozen=True)
class _RefCriticalSample:
    """One critical point, as `critical_locus` returned them before it
    returned one record of arrays."""
    z: complex
    c: complex
    component_id: int
    status: str                       # "escaped" | "bounded"
    omega_tail: np.ndarray            # (T, 2) complex, empty when escaped
    tail: np.ndarray                  # (T, 2) complex, escaped or not
    tail_steps: np.ndarray            # (T,) the step of each tail row


def _ref_critical_locus(f, base, params):
    """`critical_locus` as a list of per-point samples, split from the
    walk's tails with `np.split`."""
    i, cs = _critical_points(f, base.points)
    zs = base.points[i]
    index = CloudIndex(_as_real(base.points))
    labels = _cluster(np.column_stack([zs, cs]), 3.0 * index.spacing)
    snap = _base_snap(f.p, index, zs)
    esc, owner, step, tail = _run_spans(f, zs, cs, params.max_iter, params,
                                        snap, TAIL_LEN)
    cut = np.searchsorted(owner, np.arange(1, len(zs)))
    tails, steps = np.split(tail, cut), np.split(step, cut)
    empty = np.zeros((0, 2), dtype=complex)
    return [_RefCriticalSample(
        z=zs[k], c=cs[k], component_id=int(labels[k]),
        status="bounded" if esc[k] < 0 else "escaped",
        omega_tail=tails[k] if esc[k] < 0 else empty,
        tail=tails[k], tail_steps=steps[k]) for k in range(len(zs))]


def _ref_apt_cloud(crit):
    """`apt_cloud` on the list: the bounded samples' tails, concatenated."""
    tails = [s.omega_tail for s in crit if s.status == "bounded"]
    tails = [t for t in tails if len(t)]
    if not tails:
        return np.zeros((0, 2), dtype=complex)
    return np.concatenate(tails)


def _ref_acc_cloud_from_list(crit, w_bound):
    """`acc_cloud` on the list: the tail rows of every sample whose
    component holds a bounded sample, sorted by component, step and
    sample."""
    contributing = {s.component_id for s in crit if s.status == "bounded"}
    rows = sorted((s.component_id, int(step), k, tuple(pt))
                  for k, s in enumerate(crit)
                  if s.component_id in contributing
                  for step, pt in zip(s.tail_steps, s.tail))
    pts = np.array([r[3] for r in rows], dtype=complex).reshape(-1, 2)
    if w_bound is not None:
        pts = pts[np.abs(pts[:, 1]) <= w_bound]
    return pts


@pytest.mark.parametrize("name, make, n_base", [
    ("Fa(-1)", lambda: make_Fa(-1), 120),
    ("airplane(3)", lambda: make_airplane_skew(3), 120),
    ("s1s2", lambda: _s1s2(), 120),
    ("Fa(2)", lambda: make_Fa(2), 120),
    # dq/dw = 3 w^2: `_critical_points` runs `roots` per base point
    ("cubic product", lambda: make_product(Poly1([0, 0, 0, 1]),
                                           Poly1([0.3, 0, 0, 1])), 60),
])
def test_critical_locus_record_equals_sample_list(name, make, n_base):
    f = make()
    # the base `chain_report` builds: a sample and the periodic points
    base = PointCloud(np.concatenate([
        sample_base_julia(f.p, n_base, seed=5).points,
        repelling_periodic_points(f.p)]))
    params = derive_escape_radius(f, base_points=base.points)
    locus = critical_locus(f, base, params=params)
    ref = _ref_critical_locus(f, base, params)
    assert len(locus) == len(ref) > 0
    assert np.array_equal(_bits(locus.z), _bits(np.array([s.z for s in ref])))
    assert np.array_equal(_bits(locus.c), _bits(np.array([s.c for s in ref])))
    assert locus.component.tolist() == [s.component_id for s in ref]
    assert locus.bounded.tolist() == [s.status == "bounded" for s in ref]
    apt, ref_apt = apt_cloud(locus), _ref_apt_cloud(ref)
    assert apt.points.shape == ref_apt.shape and apt.inverse is None
    assert np.array_equal(_bits(apt.points), _bits(ref_apt))
    for w_bound in (None, 3.0):
        acc = acc_cloud(locus, w_bound=w_bound).points
        ref_acc = _ref_acc_cloud_from_list(ref, w_bound)
        assert acc.shape == ref_acc.shape
        assert np.array_equal(_bits(acc), _bits(ref_acc))
    # `chain_report`'s probe band, which took a KD-tree of its own
    assert (max(0.05, 3.0 * locus.spacing)
            == max(0.05, 3.0 * CloudIndex(_as_real(base.points)).spacing))


def _ref_critical_points(f, zs):
    """The per-point loop that `_critical_points` replaced."""
    dq = f.q.dw()
    i, c = [], []
    for k, z in enumerate(zs):
        try:
            with np.errstate(all="ignore"):  # roots divides outside its own
                crits = roots(Poly1(npoly.polyval(complex(z), dq.coeffs)))
        except (NumericalError, ValueError):
            continue
        i.extend([k] * len(crits))
        c.extend(complex(x) for x in crits)
    return i, np.array(c, dtype=complex)


# base points where integer coefficient columns vanish, points off any
# Julia set, points whose coefficients overflow, and non-finite points
_CRIT_Z = st.one_of(
    st.integers(-2, 2).map(complex),
    st.complex_numbers(max_magnitude=3.0),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e200, -1e155j, 1e-200, complex(math.inf, 0.0),
                     complex(0.0, math.nan)]),
)
_CRIT_COEF = st.one_of(st.integers(-2, 2).map(complex),
                       st.complex_numbers(max_magnitude=4.0))


@settings(max_examples=80, deadline=None)
@given(
    qc=st.integers(1, 3).flatmap(lambda nz: st.integers(2, 4).flatmap(
        lambda nw: st.lists(_CRIT_COEF, min_size=nz * nw,
                            max_size=nz * nw).map(
            lambda c: np.array(c, dtype=complex).reshape(nz, nw)))),
    zs=st.lists(_CRIT_Z, max_size=12),
)
# dq/dw = (2 - z) + 2 z w: b0 = 0 at z = 2, b1 = 0 at z = 0, a root that
# overflows at z = 1e-320, and coefficients that are not finite
@example(qc=np.array([[0, 2, 0], [0, -1, 1]], dtype=complex),
         zs=[2.0, 0.0, 1.0, 1e-320, 1e200, math.nan, complex(0, math.inf),
             -1j])
# Fa(-1): dq/dw = 2w, so every root is b0 = 0's +0j
@example(qc=make_Fa(-1).q.coeffs, zs=[1.0, -0.5j, 0.3 + 0.4j])
# a degree-3 map: dq/dw is quadratic, with a double root at z = 0
@example(qc=np.array([[0, 0, 0, 1], [0, -1, 1, 0]], dtype=complex),
         zs=[0.0, 1.0, 0.5 + 0.5j, math.inf])
# a subnormal z makes dq/dw's leading coefficient subnormal: the first
# solve divides by it and overflows, in the Aberth start (quadratic dq/dw)
# and in the linear solve
@example(qc=np.array([0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],
                     dtype=complex).reshape(3, 4),
         zs=[2.225073858507e-311 + 0j])
@example(qc=np.array([0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
                     dtype=complex).reshape(3, 4),
         zs=[2.225073858507e-311 + 0j])
def test_critical_points_match_per_point_roots(qc, zs):
    f = SkewProduct(Poly1([0, 0, 1]), Poly2(qc))
    zs = np.array(zs, dtype=complex)
    i, c = _critical_points(f, zs)
    ref_i, ref_c = _ref_critical_points(f, zs)
    assert i.dtype.kind == "i" and c.dtype == complex
    assert i.tolist() == ref_i
    assert np.array_equal(_bits(c), _bits(ref_c))


def _ref_acc_full_probe(f, target, aim, depth, params):
    """The per-step `fiber_poly` loop that `acc_full_probe` replaced, on a
    backward chain of `target` that takes, among every branch of p(x) = z
    (`sets._branch`), the preimage nearest `aim`."""
    dq = f.q.dw()
    back, probes_c, ks = [], [], []
    z = complex(target)
    for k in range(1, depth + 1):
        cands = _branch(f.p.coeffs, np.array([z])).ravel()
        z = complex(cands[np.argmin(np.abs(cands - aim))])
        back.append(z)
        with np.errstate(all="ignore"):
            dcoef = npoly.polyval(z, dq.coeffs)
        for c in roots(Poly1(dcoef)):
            probes_c.append(complex(c))
            ks.append(k)
    pts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for c0, k in zip(probes_c, ks):
            ww, ok = complex(c0), True
            for j in range(k, 0, -1):
                ww = complex(fiber_poly(f, back[j - 1])(ww))
                if not np.isfinite(ww.real) or not np.isfinite(ww.imag) \
                        or abs(ww) > params.radius:
                    ok = False
                    break
            if ok:
                pts.append((k, complex(target), ww))
    pts.sort(key=lambda t: t[0])
    cut = int(len(pts) * (1.0 - PROBE_TAIL_FRAC))
    return np.array([(p[1], p[2]) for p in pts[cut:]],
                    dtype=complex).reshape(-1, 2)


def _target_and_aim(p):
    """The probe's target, the repelling fixed point of p with the largest
    |p'|, and its aim, the repelling fixed point farthest from it."""
    dp = p.deriv()
    rep = [complex(z) for z in roots(p - Poly1([0, 1]))
           if abs(dp.step(complex(z))) > 1.0]
    target = max(rep, key=lambda z: abs(dp.step(z)))  # the first of ties
    return target, max(rep, key=lambda z: abs(z - target))


def _s1s2():
    return build_s1s2(Poly1([0, 0, 1]), Poly1([-1, 0, 1]), 1, 1)[0]


PROBE_MAPS = {
    "Fa(-1)": lambda: make_Fa(-1),
    "Fa(0.3+0.2i)": lambda: make_Fa(0.3 + 0.2j),
    "s1s2": _s1s2,
    "fig3": make_fig3,
    "airplane(3)": lambda: make_airplane_skew(3),
    "z^2-1 x w^2-1": lambda: make_product(Poly1([-1, 0, 1]),
                                          Poly1([-1, 0, 1])),
}


@pytest.mark.parametrize("name", PROBE_MAPS)
def test_acc_full_probe_matches_fiber_poly_loop(name):
    f = PROBE_MAPS[name]()
    params = derive_escape_radius(f)
    got = acc_full_probe(f, params=params)
    target, aim = _target_and_aim(f.p)
    ref = _ref_acc_full_probe(f, target, aim, 40, params)
    assert len(ref) > 0
    assert got.points.shape == ref.shape
    assert np.array_equal(_bits(got.points), _bits(ref))


def test_s1s2_probe_is_the_chain_toward_minus_R():
    # from the fixed point in the first root disk, about +R, each step
    # takes the preimage nearest the second disk, about -R
    f, consts = build_s1s2(Poly1([0, 0, 1]), Poly1([-1, 0, 1]), 1, 1)
    fixed = roots(f.p - Poly1([0, 1]))
    target = fixed[np.abs(fixed - consts.R) < 2 * consts.r][0]
    params = derive_escape_radius(f)
    ref = _ref_acc_full_probe(f, target, -consts.R, 40, params)
    got = acc_full_probe(f, params=params)
    assert len(ref) > 0
    assert np.array_equal(_bits(got.points), _bits(ref))


def test_acc_full_probe_every_probe_escaped():
    f = make_Fa(2)
    params = dataclasses.replace(derive_escape_radius(f), radius=1e-3)
    got = acc_full_probe(f, depth=10, params=params)
    assert _ref_acc_full_probe(f, 1.0, 1.0, 10, params).shape == (0, 2)
    assert got.points.shape == (0, 2) and got.points.dtype == complex


@pytest.mark.parametrize("qc, error", [
    # q linear in w: dq/dw is constant over every base point
    (np.array([[0, 1], [1, 0]], dtype=complex), ValueError),
    # the w coefficient overflows over |z| = 2
    (np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 1e308, 0]],
              dtype=complex), NumericalError),
])
def test_acc_full_probe_raises_as_fiber_poly_loop(qc, error):
    # p = z^2 - 2: the target is its fixed point 2, and the chain's first
    # step is -2, the preimage of 2 nearest the other fixed point -1
    f = SkewProduct(Poly1([-2, 0, 1]), Poly2(qc))
    assert _target_and_aim(f.p) == (2, -1)
    params = derive_escape_radius(make_Fa(-1))
    with pytest.raises(error) as ref:
        _ref_acc_full_probe(f, 2.0, -1.0, 5, params)
    with pytest.raises(error) as got:
        acc_full_probe(f, depth=5, params=params)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)


def _ref_postcritical_cloud(f, zs, ws, n_iter, params):
    """The per-step snap loop that `postcritical_cloud` replaced: every
    step maps the live rows by f and snaps each base image to its nearest
    base sample with one KD-tree query."""
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
            wn = poly2_reference(f.q, za, wa)
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
        return np.zeros((0, 2), dtype=complex)
    return np.concatenate(out)


_PC_MAPS = {
    "product": lambda a: make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1])),
    # the constant -1 - 0i keeps a -0.0 imaginary part in some w
    "product(-0i)": lambda a: make_product(Poly1([0, 0, 1]),
                                           Poly1([complex(-1, -0.0), 0, 1])),
    "airplane(3)": lambda a: make_airplane_skew(3),
    "fig3": lambda a: make_fig3(),
    "s1s2": lambda a: _s1s2(),
    "Fa": make_Fa,
}
_PC_CASES = {}


def _pc_case(name, a):
    """(f, base sample, params, critical locus) of a map, cached."""
    key = (name, a if name == "Fa" else None)
    if key not in _PC_CASES:
        f = _PC_MAPS[name](a)
        base = sample_base_julia(f.p, 60, seed=1)
        params = derive_escape_radius(f, base_points=base.points)
        _PC_CASES[key] = (f, base, params, critical_locus(f, base, params))
    return _PC_CASES[key]


# signed zeros (np.unique keeps one of them as the base sample), points
# off the base Julia set (z^2 snaps 1.9 to 2.5, whose image lies beyond the
# base radius) and one whose image overflows; fiber starts that stay
# bounded and one that escapes at step 1
_PC_Z = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
         1.0, 0.5 + 0.1j, 1e200, 1.9, 2.5]
_PC_W = [0.0, -1.0, 0.5j, 1e6]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_PC_MAPS)),
    a=st.complex_numbers(max_magnitude=2.5),
    n_iter=st.sampled_from([0, 1, 2, 37, 200]),
    picks=st.lists(st.tuples(st.integers(-60, len(_PC_Z) - 1),
                             st.one_of(st.integers(0, len(_PC_W) - 1),
                                       st.complex_numbers(max_magnitude=3.0))),
                   max_size=25),
)
# the critical locus over the base sample (an empty pick list)
@example(name="product", a=0j, n_iter=200, picks=[])
@example(name="s1s2", a=0j, n_iter=200, picks=[])
@example(name="Fa", a=-1 + 0j, n_iter=0, picks=[])
# only base points 0.0 and -0.0, which np.unique merges into one sample
@example(name="Fa", a=0.3 + 0.2j, n_iter=37,
         picks=[(0, 0), (1, 0), (2, 1), (3, 2), (0, 2)])
# over z = -0.0 - 0i, w = -0.0 - 0i reaches the states -1 - 0i and -1 + 0i:
# equal values, different bytes, so two states
@example(name="product(-0i)", a=0j, n_iter=37,
         picks=[(3, complex(-0.0, -0.0))])
# every row dies at step 1, in the fiber or in the base
@example(name="product", a=0j, n_iter=200,
         picks=[(-1, 3), (-7, 3), (6, 0), (4, 3)])
# a row dies in the base after step 1: 1.9 -> 2.5 -> 6.25
@example(name="product", a=0j, n_iter=37, picks=[(7, 0), (8, 1), (-3, 0)])
# exactly one row stays alive, so every array of the walk has one element
@example(name="product", a=0j, n_iter=200, picks=[(-5, 0), (-9, 3), (6, 1)])
@example(name="Fa", a=1j, n_iter=200, picks=[(4, 1)])
def test_postcritical_cloud_matches_per_step_snap_loop(name, a, n_iter,
                                                       picks):
    f, base, params, crit = _pc_case(name, a)
    zs, ws = crit.z, crit.c
    picked = contextlib.nullcontext()
    if picks:
        zs = np.array([base.points[i] if i < 0 else _PC_Z[i]
                       for i, _ in picks], dtype=complex)
        ws = np.array([_PC_W[w] if isinstance(w, int) else w
                       for _, w in picks], dtype=complex)
        # the picked starts: a base cloud of their z, over whose k-th point
        # the one critical point is the k-th picked w
        base = PointCloud(zs)
        starts = (np.arange(len(zs)), ws)
        picked = mock.patch.object(critpost, "_critical_points",
                                   lambda f, zs: starts)
    with picked:
        pc = postcritical_cloud(f, base, n_iter=n_iter, params=params)
    ref = _ref_postcritical_cloud(f, zs, ws, n_iter, params)
    got = pc.points[pc.inverse]
    assert got.shape == ref.shape and got.dtype == complex
    assert np.array_equal(_bits(got), _bits(ref))
    assert len(pc) == len(ref)
    # the points are the byte-distinct rows, in order of first occurrence
    keep, inverse = _distinct_rows(_as_real(ref))
    assert np.array_equal(_bits(pc.points), _bits(ref[keep]))
    assert np.array_equal(pc.inverse, inverse)


@pytest.mark.parametrize("n_iter", [1, 2, 37, 200])
def test_postcritical_cloud_queries_at_most_twice(monkeypatch, n_iter):
    f, base, params, crit = _pc_case("Fa", -1 + 0j)
    calls = []
    query = CloudIndex.query

    def counted(self, *args, **kwargs):
        calls.append(args)
        return query(self, *args, **kwargs)

    monkeypatch.setattr(CloudIndex, "query", counted)
    pc = postcritical_cloud(f, base, n_iter=n_iter, params=params)
    assert len(pc) == n_iter * len(crit)  # every critical orbit is bounded
    assert len(calls) <= 2


def _ref_certify_cloud(f, base, n_iter=200, params=None):
    """Clause (ii)'s cloud as `certify_axiom_a` built it before: the
    classified critical locus, then the per-step snap loop."""
    locus = critical_locus(f, base, params)
    return PointCloud(_ref_postcritical_cloud(
        f, locus.z, locus.c, n_iter, params))


def _float_bits(obj):
    """A dict or list with every float replaced by its bytes."""
    if isinstance(obj, dict):
        return {k: _float_bits(v) for k, v in obj.items()}
    if isinstance(obj, float):
        return np.float64(obj).tobytes()
    return obj


@pytest.mark.parametrize("name, f, n_base, verdict", [
    ("Fa(0)", make_Fa(0), 200, "Certified-P2"),
    ("Fa(0.1)", make_Fa(0.1), 200, "Certified-P2"),
    ("Fa(-1)", make_Fa(-1), 200, "Certified-P2"),
    ("Fa(-1)", make_Fa(-1), 3, "Inconclusive"),  # 600 postcritical rows
    ("Fa(2)", make_Fa(2), 200, "Inconclusive"),
    ("Fa(i)", make_Fa(1j), 200, "Failed(ii)"),
    ("product", make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1])), 200,
     "Certified-P2"),
    ("airplane(3)", make_airplane_skew(3), 200, "Inconclusive"),
])
def test_certify_equals_critical_locus_path(name, f, n_base, verdict):
    base = sample_base_julia(f.p, n_base, seed=3)
    j2 = sample_J2_inverse(f, 400, seed=4)
    params = derive_escape_radius(f, base_points=base.points)
    got = dataclasses.asdict(certify_axiom_a(f, base, j2, params=params))
    with mock.patch.object(critpost, "postcritical_cloud",
                           _ref_certify_cloud):
        want = dataclasses.asdict(certify_axiom_a(f, base, j2,
                                                  params=params))
    assert got["verdict"] == verdict
    assert _float_bits(got) == _float_bits(want)


def _ref_tail_period(tail):
    """`engine._tail_period` before its candidate prefilter."""
    t = np.asarray(tail, dtype=complex)
    max_period = min(CYCLE_MAX_PERIOD, max(1, len(t) // 2))
    for m in range(1, max_period + 1):
        if np.max(np.abs(t[m:] - t[:-m])) < CYCLE_TOL:
            return m
    return None


def _ref_walk(maps, j, x, radius, known):
    """One critical walk of `fiber_cycles` as it ran before it stopped at
    exact repeats: every step up to escape, a known point, a settled tail
    or DEFAULT_MAX_ITER periods.  Returns (end, n, phase, m, x): how and at
    which period and phase the walk ended, and the tail period and point
    when it settled."""
    k = len(maps)
    phase, n = j, 0
    tail = deque(maxlen=CYCLE_TAIL_LEN)
    while n < DEFAULT_MAX_ITER:
        x = maps[phase].step(x)
        phase = phase + 1 if phase + 1 < k else 0
        if not abs(x) <= radius:
            return "escape", n, phase, 0, x
        if phase:
            continue
        n += 1
        tail.append(x)
        if any(abs(x - y) < CYCLE_TOL for y in known):
            return "known", n, phase, 0, x
        if n % CYCLE_TAIL_LEN and n < DEFAULT_MAX_ITER:
            continue
        m = _ref_tail_period(tail)
        if m is not None:
            return "settled", n, phase, m, x
    return "undetermined", n, phase, None, x


def _ref_fiber_cycles(maps, trace=None):
    """`fiber_cycles` on `_ref_walk`; each walk's (end, n, phase) is
    appended to trace."""
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
            end, n, phase, m, x = _ref_walk(maps, j, complex(c), radius, known)
            if trace is not None:
                trace.append((end, n, phase))
            if m is None:
                undetermined += 1
            elif m:
                pts, mult = _sequence_cycle(maps, m, x)
                if not any(abs(pts[0] - y) < CYCLE_TOL for y in known):
                    cycles.append((pts, mult))
                    known.extend(pts[::k].tolist())
    cycles.sort(key=lambda c: (len(c[0]), c[0][0].real, c[0][0].imag))
    return cycles, undetermined


def _first_repeat(maps, j, x, radius):
    """(s, n) for the first phase-0 point x_n with the bytes of an earlier
    x_s, within DEFAULT_MAX_ITER periods and before escape, or None."""
    k, phase, n, seen = len(maps), j, 0, {}
    while n < DEFAULT_MAX_ITER:
        x = maps[phase].step(x)
        phase = phase + 1 if phase + 1 < k else 0
        if not abs(x) <= radius:
            return None
        if not phase:
            n += 1
            s = seen.setdefault(np.complex128(x).tobytes(), n)
            if s < n:
                return s, n
    return None


def _assert_same_cycles(got, ref):
    assert got[1] == ref[1]
    assert len(got[0]) == len(ref[0])
    for (pts, mult), (rpts, rmult) in zip(got[0], ref[0]):
        assert np.array_equal(_bits(pts), _bits(rpts))
        assert _bits(np.array([mult])).tolist() == \
            _bits(np.array([rmult])).tolist()


def _seq(*cs):
    return [Poly1(c) for c in cs]


def _superattracting(period, c):
    """The real parameter near c at which 0 has the given period under
    w^2 + c (Newton on the critical orbit)."""
    for _ in range(60):
        x, dx = 0.0, 0.0
        for _ in range(period):
            x, dx = x * x + c, 2.0 * x * dx + 1.0
        c -= x / dx
    return c


_FC_COEF = st.one_of(st.integers(-4, 4).map(lambda a: complex(a / 4)),
                     st.complex_numbers(max_magnitude=1.5))
_FC_MAPS = st.integers(2, 3).flatmap(lambda d: st.lists(
    st.lists(_FC_COEF, min_size=d, max_size=d).map(lambda c: Poly1(c + [1])),
    min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(maps=_FC_MAPS)
# float periods 1, 2, 4 and 6 from step 1 (superattracting cycles of
# w^2 + c; 6 does not divide CYCLE_TAIL_LEN)
@example(maps=_seq([0, 0, 1]))
@example(maps=_seq([-1, 0, 1]))
@example(maps=_seq([_superattracting(4, -1.3107), 0, 1]))
@example(maps=_seq([-1.772892, 0, 1]))
# w^2 - 1.9 three times over: bounded chaotic orbits, undetermined
@example(maps=_seq([-1.9, 0, 1]) * 3)
# the first exact repeat is the tail check at period 160 itself
@example(maps=_seq([-0.2519 - 0.4562j, 0, 1]))
# float period 128 (the superattracting 128-cycle of the period-doubling
# cascade), no period m <= 64 to CYCLE_TOL: undetermined
@example(maps=_seq([_superattracting(128, -1.401107), 0, 1]))
# the second critical orbit meets the first cycle at period 122, before
# the tail check at 160, and at period 176, after it
@example(maps=_seq([0.325 + 0.0837j, 0, 1]) * 2)
@example(maps=_seq([0.3295 + 0.0814j, 0, 1]) * 2)
# 0 -> 5 -> 25: an escape at phase 2
@example(maps=_seq([5, 0, 1], [0, 0, 1], [0, 0, 1]))
# w^2 - 2 with a -0.0 imaginary part: 0, -2, 2 - 0j, 2 + 0j, 2 + 0j, ...;
# 2 - 0j == 2 + 0j, but only the second repeats, bit for bit
@example(maps=_seq([complex(-2.0, -0.0), 0, 1]))
def test_fiber_cycles_bit_equal_to_full_walk(maps):
    _check_fiber_cycles(maps)


def _check_fiber_cycles(maps):
    trace = []
    ref = _ref_fiber_cycles(maps, trace)
    _assert_same_cycles(fiber_cycles(maps), ref)
    return trace, ref


def test_fiber_cycles_examples_reach_their_cases():
    # the cases the examples above are named for, read off the full walk
    def repeat(c):
        g = Poly1([c, 0, 1])
        return _first_repeat([g], 0, 0j, _one_var_radius(g.coeffs))

    assert repeat(0) == (1, 2) and repeat(-1) == (1, 3)
    assert repeat(_superattracting(4, -1.3107)) == (1, 5)
    assert np.subtract(*repeat(-1.772892)) == -6
    assert repeat(-0.2519 - 0.4562j)[1] == CYCLE_TAIL_LEN
    assert np.subtract(*repeat(_superattracting(128, -1.401107))) == -128
    trace, (_, undetermined) = _check_fiber_cycles(
        _seq([_superattracting(128, -1.401107), 0, 1]))
    assert undetermined == 1 and trace == [("undetermined", 2000, 0)]
    for c, hit in ((0.325 + 0.0837j, 122), (0.3295 + 0.0814j, 176)):
        trace, _ = _check_fiber_cycles(_seq([c, 0, 1]) * 2)
        assert trace[0][0] == "settled" and trace[1] == ("known", hit, 0)
    trace, _ = _check_fiber_cycles(_seq([5, 0, 1], [0, 0, 1], [0, 0, 1]))
    assert trace[0] == ("escape", 0, 2)
    # the near-margin example: a 2-cycle of multiplier modulus 0.9895
    lam = 0.9895 * complex(math.cos(2.0), math.sin(2.0))
    assert _check_fiber_cycles(_seq([lam / 4 - 1, 0, 1]))[1][1] == 1


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.98, 0.99), theta=st.floats(0.0, 2.0 * math.pi),
       cycle=st.sampled_from([1, 2]))
@example(r=0.9895, theta=2.0, cycle=2)
def test_fiber_cycles_near_margin_bit_equal(r, theta, cycle):
    # an attracting fixed point or 2-cycle of w^2 + c with multiplier
    # modulus in (0.98, 0.99): the tails settle slowly, and some 2-cycles
    # stay undetermined; the counts must be those of the full walk
    lam = r * complex(math.cos(theta), math.sin(theta))
    c = lam / 2 - lam * lam / 4 if cycle == 1 else lam / 4 - 1
    _check_fiber_cycles([Poly1([c, 0, 1])])


@pytest.mark.parametrize("maps", [
    _seq([0, 0, 1]), _seq([0, 0, 0, 1]), _seq([-1, 0, 1]),
    _seq([-0.0, 0, 1], [0, -0.0, 0, 1]), _seq([1j, 0, 1]),
])
@pytest.mark.parametrize("x", [0j, complex(-0.0, -0.0), complex(-0.0, 0.0),
                               complex(0.0, -0.0), 0.5 - 0.5j])
def test_critical_walk_from_signed_zero_bit_equal(maps, x):
    # a walk started from either zero (bytes, not ==, tell them apart)
    radius = max(_one_var_radius(g.coeffs) for g in maps)
    for j in range(len(maps)):
        end, _, _, m, y = _ref_walk(maps, j, x, radius, [])
        got_m, got_y = _critical_walk(maps, j, x, radius, [])
        assert got_m == m
        if m:
            assert np.complex128(got_y).tobytes() == np.complex128(y).tobytes()


_TAIL = st.lists(st.one_of(st.sampled_from([0j, 1e-6, 1e-6j, -1e-6,
                                            0.5 + 0.5j]),
                           st.complex_numbers(max_magnitude=2e-6)),
                 min_size=2, max_size=170)


@settings(max_examples=200, deadline=None)
@given(tail=_TAIL, period=st.integers(1, 8))
# |t[1] - t[0]| is CYCLE_TOL exactly (no period 1: period 2), and the float
# below it (period 1)
@example(tail=[0j, CYCLE_TOL], period=1)
@example(tail=[0j, np.nextafter(CYCLE_TOL, 0.0)], period=1)
# the same distances on the diagonal, where abs rounds
@example(tail=[0j, complex(CYCLE_TOL / math.sqrt(2), CYCLE_TOL / math.sqrt(2))],
         period=1)
@example(tail=[0.3 + 0.1j, 0.3 + 0.1j + CYCLE_TOL * np.exp(0.7j)], period=3)
def test_tail_period_equals_per_period_loop(tail, period):
    # the drawn points, and their first `period` points repeated to
    # CYCLE_TAIL_LEN before and after them
    t = np.asarray(tail, dtype=complex)
    cycle = np.resize(t[:period], CYCLE_TAIL_LEN)
    for cand in (t, np.concatenate([cycle, t]), np.concatenate([t, cycle])):
        assert _tail_period(cand) == _ref_tail_period(cand)


def test_tail_period_at_the_tolerance_edge():
    # a step of exactly CYCLE_TOL does not repeat; the float below it does
    below = np.nextafter(CYCLE_TOL, 0.0)
    assert _tail_period([0j, CYCLE_TOL] * 80) == 2
    assert _tail_period([0j, below] * 80) == 1
    assert _tail_period([0j, CYCLE_TOL]) is None
    assert _tail_period([0j, below]) == 1
