import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import validate_schema
from skewdyn.cli import main
from skewdyn.critpost import (
    DEFAULT_MARGIN,
    _cluster,
    _fibers_hyperbolic,
    acc_cloud,
    acc_full_probe,
    apt_cloud,
    attract_or_escape_1d,
    certify_axiom_a,
    critical_locus,
    find_saddles,
    postcritical_cloud,
    verify_trapping,
)
from skewdyn import cli, critpost, engine, sets
from skewdyn.engine import chordal_distance, fiber_cycles
from skewdyn.errors import PreconditionError
from skewdyn.families import make_Fa, make_airplane_skew, make_fig3, \
    make_product
from skewdyn.poly import Poly1, RootFindError, fiber_poly
from skewdyn.sets import (CloudIndex, PointCloud, _as_real, _distinct_rows,
                          min_chordal_distance, sample_J2_inverse,
                          sample_base_julia, sphere_embed)


def test_attract_or_escape_1d_superattracting():
    ok, margin = attract_or_escape_1d(Poly1([0, 0, 1]))
    assert ok and margin > 0.9  # fixed critical point, multiplier 0


def test_attract_or_escape_1d_two_cycle():
    ok, margin = attract_or_escape_1d(Poly1([-1, 0, 1]))
    assert ok and margin > 0.9  # superattracting 2-cycle {0, -1}


def test_attract_or_escape_1d_escaping_critical_orbit():
    ok, margin = attract_or_escape_1d(Poly1([0.3, 0, 1]))
    assert ok and margin == 1.0  # the critical orbit of w^2 + 0.3 escapes


def test_attract_or_escape_1d_fails_on_boundary_parameter():
    # w^2 + i: the critical orbit is preperiodic to a repelling cycle,
    # so it neither escapes nor attracts
    ok, _ = attract_or_escape_1d(Poly1([1j, 0, 1]))
    assert not ok


def test_attract_or_escape_1d_rejects_degree_one():
    with pytest.raises(PreconditionError):
        attract_or_escape_1d(Poly1([1.0, 0.5]))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 0.98), st.floats(0.0, 2.0 * math.pi),
       st.integers(1, 4))
# multipliers near a q-th root of unity: the critical tail still spirals
# after 160 steps and repeats with period q before it settles
@example(0.992, math.pi, 1)
@example(0.98, 2.0 * math.pi / 3.0, 1)
@example(0.98, math.pi / 2.0, 2)
def test_margin_is_one_minus_the_cycle_multiplier(r, theta, k):
    # w^2 + c with an attracting fixed point of multiplier lam, and w^2 + c
    # with an attracting 2-cycle of multiplier lam; over k copies of the map
    # the fixed point is a cycle of length k with multiplier lam^k, the
    # 2-cycle one of length lcm(2, k) with multiplier lam^(lcm(2, k) / 2)
    lam = cmath.rect(r, theta)
    for c, per in ((lam / 2 - lam ** 2 / 4, 1), (lam / 4 - 1, 2)):
        g = Poly1([c, 0, 1])
        want = 1.0 - r ** (math.lcm(per, k) // per)
        got = [_fibers_hyperbolic([g] * k, DEFAULT_MARGIN)]
        if k == 1:
            got.append(attract_or_escape_1d(g))
        for ok, margin in got:
            assert ok == (want >= DEFAULT_MARGIN), (lam, per, k)
            assert abs(margin - want) < 1e-9, (lam, per, k)


def test_attract_or_escape_1d_cubic_with_two_attracting_cycles():
    # g(w) = w - w (w - 1)(w - 0.6) / 2 has critical points -1/3 and 1.4;
    # they settle on the fixed points 0 (multiplier 0.7, margin 0.3) and 1
    # (multiplier 0.8, margin 0.2).  A failing map reports the least margin
    # over its cycles, not that of the first critical point that fails
    g = Poly1([0, 0.7, 0.8, -0.5])
    (zero, mu0), (one, mu1) = fiber_cycles([g])[0]
    assert abs(zero[0]) < 1e-12 and abs(one[0] - 1) < 1e-12
    assert abs(mu0 - 0.7) < 1e-12 and abs(mu1 - 0.8) < 1e-12
    for margin, ok in ((DEFAULT_MARGIN, True), (0.25, False), (0.5, False)):
        got_ok, got = attract_or_escape_1d(g, margin)
        assert got_ok == ok and abs(got - 0.2) < 1e-12


def test_attract_or_escape_1d_fails_when_critical_points_fail(monkeypatch):
    def fail(*args, **kwargs):
        raise RootFindError("no roots")

    monkeypatch.setattr(engine, "roots", fail)
    assert attract_or_escape_1d(Poly1([-1, 0, 1])) == (False, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 4), max_size=40),
       st.lists(st.integers(0, 39), max_size=40))
@example([], [])
@example([(0, 0, 0, 0)], [])
@example([(1, 2, 3, 0)], [0, 0, 0])
def test_cluster_matches_connected_components(rows, repeats):
    # integer points in R^4 with eps = 1.5: no distance lies near eps;
    # repeats appends copies of drawn rows
    rows = rows + [rows[i % len(rows)] for i in repeats if rows]
    pts = np.array([[complex(a, b), complex(c, d)] for a, b, c, d in rows],
                   dtype=complex).reshape(-1, 2)
    labels = _cluster(pts, 1.5)
    n = len(pts)
    assert labels.shape == (n,)
    real = np.column_stack([pts.real, pts.imag])
    dist = np.linalg.norm(real[:, None, :] - real[None, :, :], axis=2)
    _, ref = connected_components(csr_matrix(dist <= 1.5), directed=False)
    # components numbered 0, 1, ... in order of their least member index
    least = np.array([np.flatnonzero(ref == r)[0] for r in ref], dtype=int)
    assert np.array_equal(labels, np.unique(least, return_inverse=True)[1])


def test_cluster_of_repeated_rows_stays_small():
    # 8 distinct rows, each 250 times, at eps = 0 (a base sample whose
    # median spacing is 0): the pairs of equal rows are never listed
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    pts = rows[np.tile(np.arange(8), 250)]
    tracemalloc.start()
    try:
        labels = _cluster(pts, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(labels, np.tile(np.arange(8), 250))
    assert peak < 2_000_000


@pytest.fixture(scope="module")
def fa_m1_crit():
    # base sample augmented with the exact repelling periodic points of
    # z^2 (fixed point 1 and the 2-cycle of primitive cube roots of 1):
    # exactly periodic base points never drift, so the tails over them are
    # exact
    f = make_Fa(-1)
    w3 = np.exp(2j * np.pi / 3)
    base = sample_base_julia(f.p, 400, seed=0)
    aug = PointCloud(np.concatenate([
        np.array([1.0 + 0j, w3, w3.conjugate()]), base.points]))
    return f, aug, critical_locus(f, aug)


def test_critical_locus_fa(fa_m1_crit):
    f, base, crit = fa_m1_crit
    # the fiber critical point of w^2 + az is w = 0 over every base point
    assert len(crit) == len(base)
    assert np.all(crit.c == 0)
    assert np.all(crit.bounded)


def test_critical_locus_single_component_over_circle():
    # the locus is the graph w = 0 over the circle: one cluster once the
    # base sample is dense enough for the clustering threshold
    f = make_Fa(-1)
    crit = critical_locus(f, sample_base_julia(f.p, 2000, seed=0))
    assert len(np.unique(crit.component)) == 1


def test_component_status_all_or_nothing():
    # within each cluster all members share one fate for parameters well
    # inside (a = 0.1) or well outside (a = 2) the connectedness locus
    for fam in (make_Fa(2), make_Fa(0.1)):
        cl = critical_locus(fam, sample_base_julia(fam.p, 200, seed=0))
        for cid in np.unique(cl.component):
            assert len(np.unique(cl.bounded[cl.component == cid])) == 1


def test_apt_cloud_tails_on_saddle_cycle(fa_m1_crit):
    f, base, crit = fa_m1_crit
    apt = apt_cloud(crit)
    assert len(apt) > 0
    # over the exact fixed base point 1, tails sit on the 2-cycle {0, -1}
    sel = apt.points[apt.points[:, 0] == 1.0]
    assert len(sel) > 0
    d = np.minimum(np.abs(sel[:, 1]), np.abs(sel[:, 1] + 1.0))
    assert np.max(d) < 1e-9


def test_apt_cloud_empty_when_all_escape():
    f = make_Fa(2)
    crit = critical_locus(f, sample_base_julia(f.p, 200, seed=0))
    assert not crit.bounded.any()
    assert len(apt_cloud(crit)) == 0


def test_acc_cloud_contains_apt(fa_m1_crit):
    f, base, crit = fa_m1_crit
    apt = apt_cloud(crit)
    acc = acc_cloud(crit)
    assert len(acc) >= len(apt)
    from skewdyn.sets import directed_hausdorff

    assert directed_hausdorff(apt, acc) < 1e-6


def test_acc_cloud_skips_all_escaped_components():
    f = make_Fa(2)
    crit = critical_locus(f, sample_base_julia(f.p, 200, seed=0))
    assert len(acc_cloud(crit)) == 0


def test_acc_full_probe_lands_in_target_fiber(fa_m1_crit):
    f, base, crit = fa_m1_crit
    probe = acc_full_probe(f, depth=10)
    assert len(probe) > 0
    assert np.all(probe.points[:, 0] == 1.0)
    with pytest.raises(PreconditionError):
        acc_full_probe(f, depth=0)


def test_find_saddles_product_cycle():
    # base z^2 has repelling fixed point 1; the fiber w^2 - 1 has the
    # superattracting 2-cycle {0, -1}, so the saddle cycle has base period
    # 1 but fiber period 2
    f = make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1]))
    saddles = find_saddles(f, max_base_period=1)
    cyc2 = [s for s in saddles if len(s.cycle) == 2
            and abs(s.base_point - 1.0) < 1e-9]
    assert len(cyc2) == 1
    ws = sorted(cyc2[0].cycle[:, 1].real)
    assert abs(ws[0] + 1.0) < 1e-9 and abs(ws[1]) < 1e-9
    assert abs(cyc2[0].vertical_multiplier) < 1e-9
    assert abs(cyc2[0].base_multiplier - 2.0) < 1e-12


def test_saddle_invariants():
    f = make_Fa(-1)
    for s in find_saddles(f, max_base_period=2):
        assert abs(s.base_multiplier) > 1.0
        assert abs(s.vertical_multiplier) < 1.0
        n = len(s.cycle)
        assert n % s.base_period == 0
        # the cycle closes up under the map
        z, w = s.cycle[0]
        for k in range(n):
            zk, wk = s.cycle[k]
            assert abs(z - zk) < 1e-7 and abs(w - wk) < 1e-7
            w = complex(fiber_poly(f, z)(w))
            z = complex(f.p(z))
        assert abs(z - s.cycle[0][0]) < 1e-7
        assert abs(w - s.cycle[0][1]) < 1e-7

        # vertical multiplier equals a central difference of the fiber maps
        # applied pointwise along the cycle
        def period_map(w):
            for zk in s.cycle[:, 0]:
                w = complex(fiber_poly(f, zk)(w))
            return w

        h = 1e-6
        fd = (period_map(s.fiber_point + h)
              - period_map(s.fiber_point - h)) / (2 * h)
        assert abs(fd - s.vertical_multiplier) < 1e-6


@pytest.mark.parametrize("maker, count", [
    (lambda: make_Fa(-1), 11),
    (lambda: make_Fa(0.1), 7),
    (lambda: make_Fa(0), 7),
    (make_fig3, 5),
    (lambda: make_airplane_skew(3), 1),
])
def test_saddles_at_period_four(maker, count):
    f = maker()
    saddles = find_saddles(f, max_base_period=4)
    assert len(saddles) == count
    for s in saddles:
        z, w = s.cycle[:, 0], s.cycle[:, 1]
        # the cycle starts at its least fiber point over the base point
        assert (z[0], w[0]) == (s.base_point, s.fiber_point)
        over = w[::s.base_period]
        assert (w[0].real, w[0].imag) == min((x.real, x.imag) for x in over)
        # every fiber cycle closes to 1e-12 along its base orbit
        img = np.array([fiber_poly(f, zk)(wk) for zk, wk in s.cycle])
        nxt = np.roll(w, -1)
        assert np.all(np.abs(img - nxt) <= 1e-12 * np.maximum(1.0, abs(nxt)))
        assert abs(s.vertical_multiplier) < 1.0 - DEFAULT_MARGIN
    # canonical order: base period, then (for each base point) cycle length,
    # then fiber point
    keys = [(s.base_period, len(s.cycle), s.fiber_point.real,
             s.fiber_point.imag) for s in saddles]
    for a, b, sa, sb in zip(keys, keys[1:], saddles, saddles[1:]):
        assert a[0] <= b[0]
        if sa.base_point == sb.base_point:
            assert a[1:] < b[1:]


def test_fibers_hyperbolic_sees_misiurewicz_fiber():
    # the fiber of Fa(i) over the fixed point z = 1 is w^2 + i: its critical
    # orbit lands on a repelling 2-cycle, so it is not hyperbolic, at any
    # sequence length; the fiber of Fa(-1) there, w^2 - 1, is
    g = fiber_poly(make_Fa(1j), 1.0)
    for k in (1, 2, 3):
        ok, margin = _fibers_hyperbolic([g] * k, DEFAULT_MARGIN)
        assert not ok and margin < 0.0
    assert _fibers_hyperbolic([fiber_poly(make_Fa(-1), 1.0)] * 2,
                              DEFAULT_MARGIN) == (True, 1.0)


@pytest.mark.parametrize("maps", [
    [Poly1([0, 0, 1]), Poly1([-0.2, 0, 1])],
    [Poly1([-1, 0, 1]), Poly1([-0.1j, 0, 1])],
    [Poly1([0.25j, 0, 1]), Poly1([-0.3, 0, 1]), Poly1([0.1, 0, 1])],
    [Poly1([0.3, 0, 1]), Poly1([0.2, 0, 1])],
    [Poly1([-1.9, 0, 1]), Poly1([-1.9, 0, 1])],
])
def test_fibers_hyperbolic_matches_composed_period_map(maps):
    # the sequence test equals the one-variable test of the composed map:
    # attracting cycles, escaping critical orbits, and (w^2 - 1.9) critical
    # orbits that stay bounded and settle nowhere
    Q = maps[0]
    for g in maps[1:]:
        Q = g.compose(Q)
    ok, margin = _fibers_hyperbolic(maps, DEFAULT_MARGIN)
    want_ok, want_margin = attract_or_escape_1d(Q, DEFAULT_MARGIN)
    assert ok == want_ok
    assert abs(margin - want_margin) < 1e-12


def test_certify_product_of_hyperbolic_maps():
    f = make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1]))
    base = sample_base_julia(f.p, 300, seed=0)
    j2 = sample_J2_inverse(f, 4000, seed=1)
    rep = certify_axiom_a(f, base, j2)
    assert rep.verdict == "Certified-P2"
    assert all(c["pass"] for c in rep.clauses.values())


def test_certify_fails_on_boundary_parameter():
    f = make_Fa(1j)
    base = sample_base_julia(f.p, 300, seed=0)
    j2 = sample_J2_inverse(f, 4000, seed=1)
    rep = certify_axiom_a(f, base, j2)
    assert rep.verdict.startswith("Failed")
    assert not rep.clauses["ii"]["pass"]


def test_report_json_schema(tmp_path):
    out = tmp_path / "c"
    assert main(["certify", "--family", "Fa", "--a", "0", "--n-base", "200",
                 "--n-j2", "2000", "--seed", "0", "--out", str(out)]) == 0
    obj = json.loads((out / "certify.json").read_text())
    validate_schema(obj, "certification")
    assert obj["verdict"] == "Certified-P2"


def test_verify_trapping_saddle_cloud():
    f = make_Fa(-1)
    saddles = find_saddles(f, max_base_period=2)
    pts = np.concatenate([s.cycle for s in saddles])
    t_cloud = PointCloud(pts)
    j2 = sample_J2_inverse(f, 4000, seed=0)
    from skewdyn.sets import min_chordal_distance

    r = 0.5 * min_chordal_distance(t_cloud, j2)
    res = verify_trapping(f, t_cloud, j2, r)
    assert res["pass"]
    assert res["m"] >= 1 and res["worst_ratio"] < 0.5


def test_verify_trapping_rejects_cloud_touching_j2():
    f = make_Fa(-1)
    j2 = sample_J2_inverse(f, 3000, seed=0)
    with pytest.raises(PreconditionError):
        # the J2 cloud itself has no chordal gap from J2
        verify_trapping(f, j2, j2, r=0.1)


def test_postcritical_cloud_near_attracting_part(fa_m1_crit):
    f, base, crit = fa_m1_crit
    pc = postcritical_cloud(f, base, n_iter=60)
    assert len(pc) > 0
    # points in the fiber over the exact fixed base point 1 converge to the
    # 2-cycle {0, -1}; everything stays within the fiber escape radius
    assert np.max(np.abs(pc.points[:, 1])) <= 4.0
    sel = pc.points[pc.points[:, 0] == 1.0]
    assert len(sel) > 0
    d = np.minimum(np.abs(sel[:, 1]), np.abs(sel[:, 1] + 1.0))
    assert np.median(d) < 1e-6
    with pytest.raises(PreconditionError):
        postcritical_cloud(f, PointCloud(np.zeros(0, dtype=complex)),
                           n_iter=10)


# ---- verify_trapping's rings, all centers at once


def loop_rings(centers, r, ring):
    """The rings as verify_trapping built them one center at a time."""
    zs, ws = [], []
    for zc, wc in centers:
        rho = (r / 2.0) * (1.0 + abs(wc) ** 2)
        for _ in range(8):
            wprim = wc + rho * ring
            ch = chordal_distance(np.full(len(ring), wc), wprim)
            rho = rho * r / max(np.max(ch), 1e-300)
        zs.append(np.full(len(ring), zc))
        ws.append(wc + rho * ring)
    return np.concatenate(zs), np.concatenate(ws)


RING = np.exp(1j * (2.0 * np.pi * np.arange(32) / 32))


def ring_words(zw):
    return [np.ascontiguousarray(a).view(np.uint64) for a in zw]


@pytest.mark.parametrize("r", [0.5, 0.1, 0.01])
def test_rings_bit_equal_to_per_center_loop(r):
    rng = np.random.default_rng(5)
    n = 3000
    w = 10 ** rng.uniform(-8, 8, n) * np.exp(1j * rng.uniform(0, 7, n))
    centers = np.column_stack([rng.standard_normal(n) + 1j * rng.standard_normal(n), w])
    # the data holds centers where numpy's array square of |w| (x * x)
    # differs from the scalar abs(w) ** 2 (C pow) the loop took
    absw = np.hypot(w.real, w.imag)
    assert np.any(absw ** 2 != np.array([abs(v) ** 2 for v in w]))
    for got, want in zip(ring_words(critpost._rings(centers, r, RING)),
                         ring_words(loop_rings(centers, r, RING))):
        assert np.array_equal(got, want)
    one = centers[1234:1235]
    for got, want in zip(ring_words(critpost._rings(one, r, RING)),
                         ring_words(loop_rings(one, r, RING))):
        assert np.array_equal(got, want)


def test_verify_trapping_equals_per_center_rings(fa_m1_crit, monkeypatch):
    # 30,000 cloud points: every 30th is a center
    f, base, crit = fa_m1_crit
    t_cloud = postcritical_cloud(f, base, n_iter=60)
    assert len(t_cloud) // 1000 > 1
    j2 = sample_J2_inverse(f, 3000, seed=1)
    rep = verify_trapping(f, t_cloud, j2, r=0.1, m=50)
    monkeypatch.setattr(critpost, "_rings", loop_rings)
    assert verify_trapping(f, t_cloud, j2, r=0.1, m=50) == rep


# ---- verify_trapping on byte-distinct rows


def _ref_verify_trapping(f, t_cloud, j2, r, m=50):
    """`verify_trapping` as it ran row by row: every cloud row mapped and
    queried, and a ring around every strided center, repeats included."""
    if t_cloud.dim != 2 or len(t_cloud) == 0:
        raise PreconditionError("t_cloud must be a nonempty 2D cloud")
    index = CloudIndex(sphere_embed(t_cloud.points))
    spacing = 0.0
    nn = np.zeros(len(t_cloud))
    if len(t_cloud) > 1:
        nn = index.nn_distances()
        spacing = index.spacing
    zi = t_cloud.points[:, 0]
    wi = t_cloud.points[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        z1, w1 = f.p(zi), f.q(zi, wi)
    img = sphere_embed(np.column_stack([z1, w1]))
    dinv, _ = index.query(img)
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
    stride = max(1, len(t_cloud) // 1000)
    z, w = loop_rings(t_cloud.points[::stride], r, RING)
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


_TRAP_POOLS = {}


def _trap_pool(a, n_iter):
    """(Fa(a), the distinct rows of a small postcritical cloud of it, a J2
    cloud), cached; a complex n_iter w gives the one row (1, w) instead
    ((1, 0) is a fixed point of Fa(0))."""
    key = (a, n_iter)
    if key not in _TRAP_POOLS:
        f = make_Fa(a)
        if isinstance(n_iter, complex):
            rows = np.array([[1.0, n_iter]])
        else:
            rows = postcritical_cloud(f, sample_base_julia(f.p, 30, seed=2),
                                      n_iter=n_iter).points
        _TRAP_POOLS[key] = (f, rows, sample_J2_inverse(f, 400, seed=3))
    return _TRAP_POOLS[key]


def _trapping_outcome(a, n_iter, whole, n_rep, spread, flips, seed, r, m):
    """Run `verify_trapping` and the row-by-row reference on one cloud and
    require the same report, bit for bit, or the same PreconditionError.

    The cloud holds every pool row once if whole, plus n_rep repeats of
    the first `spread` rows, shuffled; each flip (k, j) negates real part
    j of row k where it is a zero, making a row byte-distinct from an equal
    one.  Returns "pass", "fail" or the error message."""
    f, rows, j2 = _trap_pool(a, n_iter)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, min(spread, len(rows)), n_rep)
    idx = np.concatenate([np.arange(len(rows) if whole else 0), picks])
    pts = rows[rng.permutation(idx)]
    parts = pts.view(float)
    for k, j in flips:
        if len(pts) and parts[k % len(pts), j] == 0:
            parts[k % len(pts), j] *= -1.0
    cloud = PointCloud(pts)
    try:
        want = _ref_verify_trapping(f, cloud, j2, r, m)
    except PreconditionError as e:
        with pytest.raises(PreconditionError) as got:
            verify_trapping(f, cloud, j2, r, m)
        assert str(got.value) == str(e)
        return str(e)
    got = verify_trapping(f, cloud, j2, r, m)
    assert list(got) == list(want)
    for key in want:
        assert type(got[key]) is type(want[key])
        assert np.array(got[key]).tobytes() == np.array(want[key]).tobytes()
    return "pass" if got["pass"] else "fail"


# every zero part of a Fa(0) cloud row negated: w = 0 over every row
_ALL_ZERO_FLIPS = [(k, j) for k in range(64) for j in range(4)]


@pytest.mark.parametrize("case, outcome", [
    # mostly repeats: 16 distinct rows among 2,016
    ((0, 40, True, 2000, 3, [], 1, 0.1, 50), "pass"),
    # rows of 0.0 and -0.0
    ((0, 40, True, 48, 16, _ALL_ZERO_FLIPS, 2, 0.1, 50), "pass"),
    # one distinct row, repeated
    ((0, 0j, True, 499, 1, [], 3, 0.1, 50), "pass"),
    # (1, 0) and (1, -0.0)
    ((0, 0j, True, 20, 1, [(0, 2), (5, 3)], 4, 0.1, 50), "pass"),
    # 2,630 rows: every 2nd row is a center
    ((0.1, 40, True, 2500, 130, [], 5, 0.1, 50), "pass"),
    ((-1, 5, True, 300, 10, [], 6, 0.1, 50), "fail"),
    ((0.3j, 40, True, 900, 175, [], 7, 0.01, 3), "fail"),
    # (1, 0.5) maps to (1, 0.25)
    ((0, 0.5j, True, 30, 1, [], 8, 0.1, 50), "not forward-invariant"),
    ((0, 40, True, 100, 4, [], 9, 2.0, 50), "of the J2 cloud"),
])
def test_verify_trapping_bit_equal_to_row_by_row(case, outcome):
    assert outcome in _trapping_outcome(*case)


@settings(max_examples=40, deadline=None)
@given(
    pool=st.sampled_from([(-1, 5), (-1, 40), (0, 40), (0.1, 5), (0.3j, 40),
                          (0, 0j), (0, 0.5j)]),
    whole=st.booleans(),
    n_rep=st.integers(0, 2500),
    spread=st.integers(1, 200),
    flips=st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 3)),
                   max_size=40),
    seed=st.integers(0, 2 ** 32 - 1),
    r=st.sampled_from([0.01, 0.1, 0.3, 2.0]),
    m=st.sampled_from([1, 3, 50]),
)
def test_verify_trapping_bit_equal_on_random_clouds(pool, whole, n_rep,
                                                    spread, flips, seed, r,
                                                    m):
    _trapping_outcome(*pool, whole, n_rep, spread, flips, seed, r, m)


# ---- verify_trapping on a cloud stored as distinct states


def _report_or_error(f, cloud, j2, r, m):
    """verify_trapping's report as (key, type, bytes) triples, or the
    message of its PreconditionError."""
    try:
        rep = verify_trapping(f, cloud, j2, r, m)
    except PreconditionError as e:
        return str(e)
    return [(k, type(v), np.array(v).tobytes()) for k, v in rep.items()]


def _embed_twins(pc, k):
    """pc with its first k points given a twin whose w has imaginary part
    5e-324 where pc's is 0.0: a different (z, w) row with the same
    sphere_embed row wherever |w|^2 >= 3 (2 * 5e-324 / (1 + |w|^2) rounds
    to 0).  Every 3rd row of such a point is its twin instead."""
    pts = pc.points.copy()
    twins = pts[:k].copy()
    twins[:, 1] += 5e-324j
    inverse = pc.inverse.copy()
    at = np.flatnonzero(inverse < k)[::3]
    inverse[at] += len(pts)
    return PointCloud(np.concatenate([pts, twins]), inverse=inverse)


@pytest.mark.parametrize("make, n_base, n_iter, twins, r, m, outcome", [
    (lambda: make_Fa(-1), 60, 200, 0, 0.1, 50, "pass"),
    (lambda: make_Fa(-1), 30, 200, 0, 0.1, 50, "fail"),
    (lambda: make_Fa(0.1), 30, 200, 0, 0.1, 50, "pass"),
    (lambda: make_Fa(0.3j), 30, 40, 0, 0.01, 3, "fail"),
    (lambda: make_Fa(-1), 30, 5, 0, 0.1, 50, "fail"),
    (lambda: make_Fa(0), 30, 40, 0, 2.0, 50, "of the J2 cloud"),
    # q = (w - 3)^2 + 3 fixes the critical point w = 3 over every z: every
    # row is (z, 3), and the twins (z, 3 + 5e-324i) embed to the same rows
    (lambda: make_product(Poly1([0, 0, 1]), Poly1([12, -6, 1])), 40, 20, 25,
     0.1, 50, "pass"),
])
def test_verify_trapping_merged_cloud_equals_plain_rows(make, n_base, n_iter,
                                                        twins, r, m, outcome,
                                                        monkeypatch):
    f = make()
    pc = postcritical_cloud(f, sample_base_julia(f.p, n_base, seed=2),
                            n_iter=n_iter)
    if twins:
        pc = _embed_twins(pc, twins)
        emb = sphere_embed(pc.points)
        assert len(_distinct_rows(emb)[0]) == len(pc.points) - twins
    j2 = sample_J2_inverse(f, 400, seed=3)
    # every KD-tree holds byte-distinct rows: the index groups the
    # embedded points by their own bytes, not by those of (z, w)
    kdtree = scipy.spatial.cKDTree

    def distinct_tree(rows):
        key = np.ascontiguousarray(rows).view(
            np.dtype((np.void, rows.itemsize * rows.shape[1])))
        assert len(np.unique(key)) == len(rows)
        return kdtree(rows)

    monkeypatch.setattr(scipy.spatial, "cKDTree", distinct_tree)
    got = _report_or_error(f, pc, j2, r, m)
    want = _report_or_error(f, PointCloud(pc.points[pc.inverse]), j2, r, m)
    assert got == want
    if outcome in ("pass", "fail"):
        assert dict((k, v) for k, _, v in got)["pass"] == \
            np.array(outcome == "pass").tobytes()
    else:
        assert outcome in got


def test_certify_and_trapping_never_hash_every_cloud_row(tmp_path,
                                                         monkeypatch):
    sizes, rows = [], []
    distinct = sets._distinct_rows

    def counted(r):
        sizes.append(len(r))
        return distinct(r)

    real = critpost.postcritical_cloud

    def cloud(*args, **kwargs):
        pc = real(*args, **kwargs)
        rows.append(len(pc))
        return pc

    for mod in (sets, critpost):
        monkeypatch.setattr(mod, "_distinct_rows", counted)
    for mod in (critpost, cli):
        monkeypatch.setattr(mod, "postcritical_cloud", cloud)
    fa = ["--family", "Fa", "--a=-1"]
    assert main(["certify", *fa, "--n-base", "200", "--n-j2", "400",
                 "--out", str(tmp_path / "c")]) == 0
    assert main(["verify-lemma", "trapping", *fa, "--r", "0.1", "--m", "50",
                 "--tcloud", "postcritical", "--n-base", "150",
                 "--n-j2", "400", "--out", str(tmp_path / "t")]) == 0
    assert rows == [40000, 22500] and sizes
    assert max(sizes) < min(rows)


def test_row_count_gates_inconclusive():
    # 4,000 rows, 942 of them distinct: above MIN_PC_SAMPLES only by rows
    f = make_Fa(-1)
    base = sample_base_julia(f.p, 20, seed=1)
    pc = postcritical_cloud(f, base)
    assert len(pc) == 4000 and len(pc.points) == 942
    assert len(pc.points) < critpost.MIN_PC_SAMPLES <= len(pc)
    rep = certify_axiom_a(f, base, sample_J2_inverse(f, 400, seed=2))
    assert rep.verdict != "Inconclusive"
    assert rep.sample_counts["postcritical"] == 4000


# ---- certify and verify-lemma trapping skip the orbit classification


def test_certify_and_trapping_skip_critical_orbit_walk(tmp_path,
                                                       monkeypatch):
    calls = {"_run_spans": 0, "_cluster": 0}
    for name in calls:
        def counted(*args, real=getattr(critpost, name), name=name,
                    **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(critpost, name, counted)
    fa = ["--family", "Fa", "--a=-1"]
    assert main(["certify", *fa, "--n-base", "200", "--n-j2", "400",
                 "--out", str(tmp_path / "c")]) == 0
    assert main(["verify-lemma", "trapping", *fa, "--r", "0.1", "--m", "50",
                 "--tcloud", "postcritical", "--n-base", "150",
                 "--n-j2", "400", "--out", str(tmp_path / "t")]) == 0
    assert calls == {"_run_spans": 0, "_cluster": 0}
    # the counters see the walk where it runs
    f = make_Fa(-1)
    critical_locus(f, sample_base_julia(f.p, 20, seed=0))
    assert calls == {"_run_spans": 1, "_cluster": 1}
