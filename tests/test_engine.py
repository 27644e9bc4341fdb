import numpy as np
import pytest

from skewdyn import engine
from skewdyn.engine import (
    EscapeParams,
    Rect,
    chordal_distance,
    derive_escape_radius,
    fiber_cycles,
    repelling_cycles,
)
from skewdyn.poly import RootFindError
from skewdyn.families import make_Fa, make_fig3, make_product
from skewdyn.poly import Poly1, fiber_poly
from skewdyn.sets import sample_base_julia


def test_radius_for_pure_square():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    params = derive_escape_radius(f)
    assert params.radius == 4.0


@pytest.mark.parametrize("maker", [lambda: make_Fa(-1), make_fig3])
def test_radius_defining_property(maker):
    # 100 uniform samples of the square of half-side base_radius about 0
    f = maker()
    params = derive_escape_radius(f)
    rng = np.random.default_rng(0)
    square = np.random.default_rng(1)
    b = params.base_radius
    zs = square.uniform(-b, b, 100) + 1j * square.uniform(-b, b, 100)
    ws = params.radius * np.exp(2j * np.pi * rng.random(1000))
    for z in zs:
        vals = np.abs(fiber_poly(f, z)(ws))
        assert np.all(vals >= 2.0 * params.radius - 1e-9)


def test_radius_with_base_points_is_tighter(s1s2_basic):
    f, consts, _, _ = s1s2_basic
    base = sample_base_julia(f.p, 500, seed=0)
    tight = derive_escape_radius(f, base_points=base.points)
    # the defining property still holds on the sampled base
    rng = np.random.default_rng(1)
    ws = tight.radius * np.exp(2j * np.pi * rng.random(500))
    for z in base.points[:50]:
        assert np.all(np.abs(fiber_poly(f, z)(ws)) >= 2.0 * tight.radius)
    # and the radius is far below what the enclosing window would give
    loose = derive_escape_radius(f)
    assert tight.radius < 1e-3 * loose.radius


@pytest.mark.parametrize("n", [1, 2, 3])
def test_repelling_cycles_of_z_squared(n):
    # z^2 has 2^n - 1 points of period dividing n on the unit circle, each
    # of multiplier 2^n, and the superattracting fixed point 0
    cycles = repelling_cycles(Poly1([0, 0, 1]), n)
    assert len(cycles) == 2**n - 1
    for z, orbit, mult in cycles:
        assert orbit[0] == z and len(orbit) == n
        assert all(b == a * a for a, b in zip(orbit, orbit[1:]))
        assert abs(orbit[-1] ** 2 - z) < 1e-12
        assert abs(mult - 2**n * np.prod(orbit)) < 1e-9
        assert abs(abs(mult) - 2**n) < 1e-9


def test_repelling_cycles_keep_only_repelling_points():
    # z^2 - 0.75: fixed points 1.5 (multiplier 3) and -0.5 (multiplier -1)
    cycles = repelling_cycles(Poly1([-0.75, 0, 1]), 1)
    assert [(z, m) for z, _, m in cycles] == [(1.5, 3.0)]


def test_repelling_cycles_empty_when_roots_fail(monkeypatch):
    def fail(*args, **kwargs):
        raise RootFindError("no roots")

    monkeypatch.setattr(engine, "roots", fail)
    assert repelling_cycles(Poly1([-1, 0, 1]), 2) == []


def _closes(maps, pts, tol=1e-12):
    k = len(maps)
    img = np.array([maps[t % k](w) for t, w in enumerate(pts)])
    nxt = np.roll(pts, -1)
    return np.all(np.abs(img - nxt) <= tol * np.maximum(1.0, np.abs(nxt)))


@pytest.mark.parametrize("maps", [
    [Poly1([0, 0, 1]), Poly1([-0.2, 0, 1])],
    [Poly1([-1, 0, 1]), Poly1([-0.1j, 0, 1])],
    [Poly1([0.25j, 0, 1]), Poly1([-0.3, 0, 1]), Poly1([0.1, 0, 1])],
    [Poly1([-0.5, 0, 0, 1]), Poly1([0.2j, -0.3, 0, 1])],
])
def test_fiber_cycles_are_fixed_points_of_the_composed_map(maps):
    # each cycle point over phase 0 is a root of Q(w) - w, Q composed here,
    # and the multiplier is Q' there
    Q = maps[0]
    for g in maps[1:]:
        Q = g.compose(Q)
    cycles, undetermined = fiber_cycles(maps)
    assert cycles and undetermined == 0
    k = len(maps)
    for pts, mult in cycles:
        assert len(pts) % k == 0 and _closes(maps, pts)
        m = len(pts) // k
        Qm = Q
        for _ in range(m - 1):
            Qm = Q.compose(Qm)
        assert abs(Qm(pts[0]) - pts[0]) < 1e-10
        assert abs(Qm.deriv()(pts[0]) - mult) < 1e-9
        assert abs(mult) < 1.0


def test_fiber_cycles_order_and_long_periods():
    # w^2 - 1 twelve times over: its 2-cycle {0, -1} splits into two cycles
    # of the period map, found in (length, real, imaginary) order from -1
    g = Poly1([-1, 0, 1])
    cycles, undetermined = fiber_cycles([g] * 12)
    assert undetermined == 0
    assert [(len(p), p[0], m) for p, m in cycles] == [(12, -1, 0), (12, 0, 0)]
    # eight different maps: one attracting cycle, closed to 1e-12, with
    # the multiplier of a central difference along it
    maps = [Poly1([0.1 * np.exp(2j * np.pi * t / 8), 0, 1]) for t in range(8)]
    (pts, mult), = fiber_cycles(maps)[0]

    def period_map(w):
        for q in maps:
            w = q(w)
        return w

    assert _closes(maps, pts)
    fd = (period_map(pts[0] + 1e-6) - period_map(pts[0] - 1e-6)) / 2e-6
    assert abs(fd - mult) < 1e-6


def test_fiber_cycles_polish_slowly_attracting_cycles():
    # w^3 + 1.01 w: two attracting fixed points +-0.1i, one for each
    # critical point, of multiplier 0.98; the tails come within about 1e-6
    # of them, the Newton polish within an ulp
    g = Poly1([0, 1.01, 0, 1])
    cycles, undetermined = fiber_cycles([g])
    assert undetermined == 0 and len(cycles) == 2
    got = sorted((pts[0] for pts, _ in cycles), key=lambda w: w.imag)
    assert np.max(np.abs(np.array(got) - [-0.1j, 0.1j])) < 1e-15
    for pts, mult in cycles:
        assert abs(mult - 0.98) < 1e-12 and _closes([g], pts)


def test_fiber_cycles_count_orbits_that_settle_nowhere():
    # w^2 - 1.9: bounded chaotic critical orbits; w^2 + 0.3: they escape;
    # w^2 + i: an exactly periodic repelling 2-cycle, which is reported
    assert fiber_cycles([Poly1([-1.9, 0, 1])] * 3) == ([], 3)
    assert fiber_cycles([Poly1([0.3, 0, 1])] * 2) == ([], 0)
    (pts, mult), = fiber_cycles([Poly1([1j, 0, 1])])[0]
    assert sorted(pts.tolist(), key=lambda w: w.real) == [-1 + 1j, -1j]
    assert abs(abs(mult) - 4 * 2 ** 0.5) < 1e-12


def test_fiber_cycles_count_critical_points_of_failed_solves(monkeypatch):
    def fail(*args, **kwargs):
        raise RootFindError("no roots")

    monkeypatch.setattr(engine, "roots", fail)
    assert fiber_cycles([Poly1([0, 0, 0, 1])] * 2) == ([], 4)


def test_chordal_special_values():
    assert chordal_distance(0.0, None) == 2.0
    assert chordal_distance(None, None) == 0.0
    assert chordal_distance(0.3 + 1j, 0.3 + 1j) == 0.0
    assert abs(chordal_distance(1.0, -1.0) - 2.0) < 1e-15


def test_chordal_triangle_inequality():
    rng = np.random.default_rng(5)
    n = 10000
    pts = 5.0 * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    ab = chordal_distance(pts[:, 0], pts[:, 1])
    bc = chordal_distance(pts[:, 1], pts[:, 2])
    ac = chordal_distance(pts[:, 0], pts[:, 2])
    assert np.all(ac <= ab + bc + 1e-12)
    assert np.max(np.abs(chordal_distance(pts[:, 1], pts[:, 0]) - ab)) == 0.0


def test_rect_helpers():
    r = Rect.square(1.0 + 1.0j, 0.5)
    assert r.re_min == 0.5 and r.im_max == 1.5
    assert abs(r.max_abs() - abs(1.5 + 1.5j)) < 1e-15


def test_escape_params_with_max_iter():
    p = EscapeParams(radius=4.0, base_radius=2.0)
    q = p.with_max_iter(50)
    assert q.max_iter == 50 and q.radius == 4.0
