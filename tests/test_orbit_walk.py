"""The one-pass tracked-orbit walk against the two-pass walk it replaced.

`_ref_run_spans` finds where each orbit stops and `_ref_collect_windows`
replays every orbit from step 1 to collect its tail; `_run_spans` must give
the same escape steps and bit-equal tails in one pass, and `acc_cloud`'s
single batch must equal the old per-component loop.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from skewdyn.chain import repelling_periodic_points
from skewdyn.critpost import (
    ACC_ITER,
    TAIL_FRAC,
    _base_snap,
    _run_spans,
    acc_cloud,
    critical_locus,
)
from skewdyn.engine import derive_escape_radius
from skewdyn.families import make_airplane_skew, make_Fa, make_product
from skewdyn.poly import Poly1
from skewdyn.sets import CloudIndex, PointCloud, _as_real, sample_base_julia


def _ref_step_tracked(f, z, w, k, idx, snap):
    za, wa = z[idx], w[idx]
    wn = f.q(za, wa)
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
_SPECIAL_Z = [1.0, _W3, _W3.conjugate(), 0.0, -1.0, 0.5, 0.3 + 0.1j]
_SPECIAL_W = [0.0, -1.0, 0.5j, 1e6]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_MAPS)),
    n_iter=st.integers(0, 40),
    width=st.sampled_from([1, 2, 3, 5, 8, 64]),
    picks=st.lists(st.tuples(st.integers(0, 59 + len(_SPECIAL_Z)),
                             st.one_of(st.integers(0, len(_SPECIAL_W) - 1),
                                       st.complex_numbers(max_magnitude=3.0))),
                   min_size=1, max_size=25),
)
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


def _ref_acc_cloud(f, crit, params, w_bound):
    """The per-component loop that `acc_cloud` batches."""
    index = CloudIndex(_as_real(np.unique(np.array([s.z for s in crit]))))
    parts = []
    for cid in sorted({s.component_id for s in crit}):
        members = [s for s in crit if s.component_id == cid]
        if {s.status for s in members} == {"escaped"}:
            continue
        zs = np.array([s.z for s in members])
        ws = np.array([s.c for s in members])
        snap = _base_snap(f.p, index, zs)
        _, ends = _ref_run_spans(f, zs, ws, ACC_ITER, params, snap)
        starts = _ref_tail_starts(ends, TAIL_FRAC)
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
    comps = {s.component_id for s in crit}
    mixed = {s.component_id for s in crit if s.status == "bounded"}
    assert len(comps) > 20 and 0 < len(mixed) < len(comps)
    for w_bound in (None, 3.0):
        got = acc_cloud(f, crit, params=params, w_bound=w_bound).points
        ref = _ref_acc_cloud(f, crit, params, w_bound)
        assert len(ref) > 0
        assert got.shape == ref.shape
        assert np.array_equal(_bits(got), _bits(ref))
