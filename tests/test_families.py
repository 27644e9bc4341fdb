import numpy as np
import pytest

from skewdyn.errors import PreconditionError
from skewdyn.families import (
    S1S2Constants,
    _exact_period,
    _orbit_newton,
    build_s1s2,
    make_Fa,
    make_airplane_skew,
    make_fig3,
    make_product,
    solve_superattracting_param,
)
from skewdyn.poly import Poly1, fiber_poly
from skewdyn.sets import sample_base_julia


def test_make_product_rejects_degree_mismatch():
    with pytest.raises(PreconditionError):
        make_product(Poly1([0, 0, 1]), Poly1([0, 0, 0, 1]))
    with pytest.raises(PreconditionError):
        make_product(Poly1([0, 1]), Poly1([0, 1]))


def test_fa_at_zero_is_a_product():
    # the same p, and the same q once the all-zero z-row of Fa(0) is dropped
    f = make_Fa(0)
    g = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    assert np.array_equal(f.p.coeffs, g.p.coeffs)
    assert not f.q.coeffs[1:].any()
    assert np.array_equal(f.q.coeffs[:1], g.q.coeffs)


def test_fa_semiconjugacy_identity():
    # with phi(z, w) = (z^2, z w) and H_a = (z^2, w^2 + a):
    # F_a(phi(z, w)) = phi(H_a(z, w))
    rng = np.random.default_rng(1)
    for a in (-1.0, 0.3 + 0.2j):
        f = make_Fa(a)
        z = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        w = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        lz, lw = f.p(z * z), f.q(z * z, z * w)
        hz, hw = z * z, w * w + a
        rz, rw = hz * hz, hz * hw
        scale = np.maximum(np.abs(lw), 1.0)
        assert np.max(np.abs(lz - rz) / np.maximum(np.abs(lz), 1.0)) < 1e-10
        assert np.max(np.abs(lw - rw) / scale) < 1e-10


def test_fa_invariant_curve_identity():
    # the curve {(e^{2it}, x e^{it})} maps to the curve of g_a(x),
    # where g_a = w^2 + a
    rng = np.random.default_rng(2)
    for a in (-1.0, 0.7 - 0.4j):
        f = make_Fa(a)
        g = f.meta["g"]
        t = 2 * np.pi * rng.random(1000)
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        z = np.exp(2j * t)
        w = x * np.exp(1j * t)
        z1, w1 = f.p(z), f.q(z, w)
        assert np.max(np.abs(z1 - np.exp(4j * t))) < 1e-12
        scale = np.maximum(np.abs(w1), 1.0)
        assert np.max(np.abs(w1 - g(x) * np.exp(2j * t)) / scale) < 1e-12


def test_fa_vertical_derivative_identity():
    # |dq_z/dw| on the invariant curve equals |g_a'| at the curve parameter
    rng = np.random.default_rng(3)
    f = make_Fa(-1)
    g = f.meta["g"]
    t = 2 * np.pi * rng.random(1000)
    x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    lhs = np.abs(2.0 * x * np.exp(1j * t))
    for i in range(0, 1000, 37):
        qz = fiber_poly(f, np.exp(2j * t[i]))
        assert abs(abs(qz.deriv()(x[i] * np.exp(1j * t[i])))
                   - abs(g.deriv()(x[i]))) < 1e-12
        assert abs(lhs[i] - abs(g.deriv()(x[i]))) < 1e-12


def test_superattracting_param_small_periods():
    assert abs(solve_superattracting_param(2) + 1.0) < 1e-10
    assert abs(solve_superattracting_param(3) + 1.75488) < 1e-4


def test_superattracting_param_period_four():
    c = solve_superattracting_param(4)
    assert -2.0 < c < -1.9
    # exact period 4: the critical orbit returns only after 4 steps
    x = 0.0
    vals = []
    for _ in range(4):
        x = x * x + c
        vals.append(x)
    assert abs(vals[-1]) < 1e-8
    assert min(abs(v) for v in vals[:-1]) > 1e-3


def test_superattracting_param_monotone():
    prev = solve_superattracting_param(2)
    for n in range(3, 9):
        c = solve_superattracting_param(n)
        assert -2.0 < c < prev
        prev = c


def test_superattracting_param_period_twelve():
    # the real period-12 parameter closest to -2 (mpmath, 60 digits, exact
    # period checked); the grid scan alone returned -1.9999779390932944,
    # another period-12 root, because the roots nearest -2 crowd closer
    # than its grid spacing
    c = solve_superattracting_param(12)
    assert abs(c - (-1.9999991175872608)) < 1e-12
    assert -2.0 < c < solve_superattracting_param(11)


def test_superattracting_param_periods_two_to_eleven_unchanged():
    # bit for bit the grid scan's values, on which the airplane(n) maps and
    # their artifacts rest
    expected = [-1.0, -1.7548776662466927, -1.9407998065294847,
                -1.9854242530542052, -1.9963761377111937,
                -1.9990956823270185, -1.9997740486937274,
                -1.999943521765674, -1.999985881140392,
                -1.9999964703350086]
    for n, c in enumerate(expected, start=2):
        assert solve_superattracting_param(n) == c, n


def _superattracting_param_reference(n):
    """`solve_superattracting_param` as it was when its bisection
    recomputed the orbit of lo at every step."""
    grid = np.linspace(-2.000013, 0.500017, 200001)
    x = grid.copy()
    for _ in range(n - 1):
        x = x * x + grid
    sign = np.sign(x)
    candidates = []
    for i in np.where(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi = grid[i], grid[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            xm = mid
            for _ in range(n - 1):
                xm = xm * xm + mid
            xl = lo
            for _ in range(n - 1):
                xl = xl * xl + lo
            if np.sign(xm) == np.sign(xl):
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
    return float(min(candidates))


def test_superattracting_param_bit_equal_to_orbit_of_lo_bisection():
    for n in range(2, 13):
        got = solve_superattracting_param(n)
        assert got.hex() == _superattracting_param_reference(n).hex(), n


def test_superattracting_param_range():
    with pytest.raises(PreconditionError):
        solve_superattracting_param(1)
    with pytest.raises(PreconditionError):
        solve_superattracting_param(13)


def test_airplane_skew_structure():
    f = make_airplane_skew(3)
    # q(z, w) = w^2 + 4 - 2z
    assert f.q.coeffs[0, 2] == 1.0
    assert f.q.coeffs[0, 0] == 4.0
    assert f.q.coeffs[1, 0] == -2.0
    assert abs(f.p.coeffs[0] + 1.75488) < 1e-4
    with pytest.raises(PreconditionError):
        make_airplane_skew(1)


def test_airplane_beta_fiber_attracts_critical_point():
    f = make_airplane_skew(3)
    beta = f.meta["beta"]
    assert abs(f.p(beta) - beta) < 1e-9  # fixed base point
    qb = fiber_poly(f, beta)
    # the fiber critical point w = 0 converges to an attracting fixed point
    w = 0.0
    for _ in range(500):
        w = complex(qb(w))
    assert abs(qb(w) - w) < 1e-9
    assert abs(qb.deriv()(w)) < 1.0


def test_airplane_critical_locus_mostly_escapes():
    # the critical set is the zero section w = 0; the orbit over the fixed
    # base point beta is bounded, while most other fibers are observed to
    # escape (base orbits that linger where the fiber constant 4 - 2z is
    # small can stall below the escape radius for their whole trusted span,
    # so "all but beta escape" is not decidable at finite iteration)
    import numpy as np

    from skewdyn.critpost import critical_locus
    from skewdyn.engine import derive_escape_radius
    from skewdyn.sets import PointCloud

    f = make_airplane_skew(3)
    beta = complex(f.meta["beta"])
    base_r = sample_base_julia(f.p, 200, seed=0)
    base = PointCloud(np.concatenate([np.array([beta]), base_r.points]))
    params = derive_escape_radius(f, base_points=base.points)
    crit = critical_locus(f, base, params=params)
    assert np.all(crit.c == 0)
    over_beta = crit.z == beta
    assert over_beta.sum() == 1 and crit.bounded[over_beta].all()
    escaped = np.sum(~crit.bounded)
    assert escaped / len(crit) > 0.5


def test_fig3_literal_map():
    f = make_fig3()
    assert np.array_equal(f.p.coeffs, np.array([-20.0, 0.0, 1.0]))
    # q = w^2 + z^2 - 0.9 z - 20.5
    assert f.q.coeffs[0, 2] == 1.0
    assert f.q.coeffs[0, 0] == -20.5
    assert f.q.coeffs[1, 0] == -0.9
    assert f.q.coeffs[2, 0] == 1.0
    # the base critical orbit escapes monotonically: Cantor base
    x = 0.0
    prev = 0.0
    for i in range(6):
        x = x * x - 20.0
        if i >= 2:
            assert x > 2 * prev > 0
        prev = x


def test_s1s2_constants_invariants(s1s2_basic):
    f, consts, s1, s2 = s1s2_basic
    assert isinstance(consts, S1S2Constants)
    d = consts.d
    assert consts.k1 + consts.k2 == d
    assert 0 < consts.r < 1
    assert consts.M ** d / 18.0 > 2.0 * consts.M
    assert consts.R == 2.0 * consts.M ** d - consts.r
    xi = consts.xi
    assert np.all(np.abs(xi[:consts.k1] - consts.R) <= consts.r / 2)
    assert np.all(np.abs(xi[consts.k1:] + consts.R) <= consts.r / 2)
    # the base polynomial is a * prod(z - xi_j)
    assert f.p.coeffs[-1] == consts.a


def test_s1s2_constants_and_map_steps(monkeypatch):
    # the constants of w^2 and w^2 - 1, and the map steps of the build:
    # its 202 hyperbolicity probes walk their critical orbits only to the
    # first exact float repeat (65,730 steps when each walk ran on to its
    # settled tail check)
    calls = [0]
    step = Poly1.step

    def counted(self, x):
        calls[0] += 1
        return step(self, x)

    monkeypatch.setattr(Poly1, "step", counted)
    _, consts = build_s1s2(Poly1([0, 0, 1]), Poly1([-1, 0, 1]), 1, 1)
    assert (consts.M, consts.r, consts.R, consts.a) == (64.0, 1 / 16,
                                                        8191.9375, 32)
    assert calls[0] <= 10_000


def test_s1s2_fiber_near_target_polynomial(s1s2_basic):
    f, consts, s1, s2 = s1s2_basic
    # fixed base point inside the first root disk
    z1 = f.meta["probe_target"]
    assert abs(z1 - consts.R) < 2 * consts.r
    qz = fiber_poly(f, z1)
    dist = np.sum(np.abs(qz.coeffs - s1.coeffs))
    assert dist < 2 * consts.r


def test_s1s2_escape_ring_bound(s1s2_basic):
    f, consts, _, _ = s1s2_basic
    base = sample_base_julia(f.p, 100, seed=0)
    ring = 3.0 * consts.M * np.exp(2j * np.pi * np.arange(64) / 64)
    for z in base.points[:20]:
        vals = np.abs(fiber_poly(f, z)(ring))
        assert np.all(vals >= 2.0 * 3.0 * consts.M)


def test_s1s2_rejects_non_hyperbolic_factor():
    # w^2 + 0.25 has a neutral fixed point: the 1D test must fail
    with pytest.raises(PreconditionError):
        build_s1s2(Poly1([0, 0, 1]), Poly1([0.25, 0, 1]), 1, 1, seed=0)


def test_s1s2_rejects_degree_mismatch():
    with pytest.raises(PreconditionError):
        build_s1s2(Poly1([0, 0, 1]), Poly1([0, 0, 0, 1]), 1, 2, seed=0)
