"""The backward step of the inverse-iteration samplers.

`sets._preimages` is checked bit for bit (through `.view(np.uint64)`)
against the separate paths it replaced: the one-branch and all-branch
quadratic formulas, the square-root path for fibers with no linear w term,
and the per-point `fiber_poly` loop.  At degree 3 each column must equal
the `roots` of its shifted polynomial, and the base and fiber samplers
must hold the same complete preimage tree as the level-by-level expansion
they replaced (in another order).
"""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from skewdyn.errors import NumericalError
from skewdyn.families import make_Fa, make_fig3, make_product
from skewdyn.poly import Poly1, Poly2, RootFindError, SkewProduct, \
    fiber_poly, roots
from skewdyn.sets import PointCloud, _preimages, _repelling_fixed_point, \
    directed_hausdorff, sample_J2_inverse, sample_base_julia, \
    sample_fiber_julia


def bits(x):
    return np.ascontiguousarray(x, dtype=complex).view(np.uint64)


def assert_bit_equal(a, b):
    assert np.array_equal(bits(a), bits(b))


# ---- the replaced paths, kept here as they were


def old_pick(poly, values, picks):
    """One chosen branch per value."""
    c = poly.coeffs
    if len(c) == 3:
        a, b, c0 = c[2], c[1], c[0]
        disc = np.sqrt(b * b - 4.0 * a * (c0 - values))
        r1 = (-b + disc) / (2.0 * a)
        r2 = (-b - disc) / (2.0 * a)
        return np.where(picks % 2 == 0, r1, r2)
    out = np.empty(len(values), dtype=complex)
    for i, v in enumerate(values):
        shifted = c.copy()
        shifted[0] -= v
        rts = roots(Poly1(shifted))
        out[i] = rts[picks[i] % len(rts)]
    return out


def old_all(poly, values):
    """Every branch of every value, value-major above degree 2."""
    c = poly.coeffs
    if len(c) == 3:
        a, b, c0 = c[2], c[1], c[0]
        disc = np.sqrt(b * b - 4.0 * a * (c0 - values))
        return np.concatenate([(-b + disc) / (2 * a), (-b - disc) / (2 * a)])
    out = []
    for v in values:
        shifted = c.copy()
        shifted[0] -= v
        out.append(roots(Poly1(shifted)))
    return np.concatenate(out)


def old_sqrt_step(f, z, w, wpicks):
    """The J2 fiber step for a degree-2 fiber with no linear w term."""
    c = f.q.coeffs
    root = np.sqrt((w - npoly.polyval(z, c[:, 0])) / c[0, 2])
    return np.where(wpicks % 2 == 0, root, -root)


def old_fiber_loop(f, z, w, wpicks):
    """The J2 fiber step one point at a time."""
    out = w.copy()
    for i in range(len(z)):
        out[i] = old_pick(fiber_poly(f, z[i]), w[i:i + 1], wpicks[i:i + 1])[0]
    return out


def old_base_sample(p, n_points, seed, burn_in=100):
    rng = np.random.default_rng(seed)
    z = np.array([_repelling_fixed_point(p)], dtype=complex)
    for _ in range(burn_in):
        z = old_pick(p, z, rng.integers(0, p.degree, 1))
    while len(z) < n_points:
        z = old_all(p, z)
    idx = rng.permutation(len(z))[:n_points]
    return z[np.sort(idx)]


def old_fiber_sample(f, z, n_points, depth, seed):
    rng = np.random.default_rng(seed)
    chain = f.p.orbit(z, depth)
    tree_levels = min(int(np.ceil(np.log(n_points) / np.log(f.degree))),
                      depth)
    w = np.array([2.0 + 0j])
    for i, zk in enumerate(reversed(chain)):
        qz = fiber_poly(f, zk)
        if i >= depth - tree_levels:
            w = old_all(qz, w)
        else:
            w = old_pick(qz, w, rng.integers(0, f.degree, len(w)))
    idx = rng.permutation(len(w))[:n_points]
    return w[np.sort(idx)]


def old_J2(f, n_points, seed, burn_in):
    rng = np.random.default_rng(seed)
    z = np.full(n_points, _repelling_fixed_point(f.p), dtype=complex)
    w = np.full(n_points, 2.0, dtype=complex)
    for _ in range(burn_in):
        z = old_pick(f.p, z, rng.integers(0, f.p.degree, n_points))
        w = old_fiber_loop(f, z, w, rng.integers(0, f.degree, n_points))
    return np.column_stack([z, w])


# ---- inputs


def cloud(rng, n, scale=2.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def skew(p, q_rows):
    return SkewProduct(p=Poly1(p), q=Poly2(q_rows))


# the product (z^2, w^2 + 0.3 w - 0.8): a fiber table with a linear w term
LINEAR = make_product(Poly1([0, 0, 1]), Poly1([-0.8, 0.3, 1]))
# q = w^2 + (0.3 + 0.2i z) w - 0.8 + 0.1 z: a linear w term that varies
COMPLEX_LINEAR = skew([-1, 0, 1], [[-0.8, 0.3, 1], [0.1, 0.2j, 0]])
CUBIC_P = Poly1([0.1 + 0.2j, -0.3, 0, 1])
# a cubic fiber map whose coefficients vary with z
CUBIC_SKEW = skew([0.1 + 0.2j, -0.3, 0, 1],
                  [[-0.2j, 0.5, 0, 1], [0.3, 0, 0.1j, 0]])


# ---- the kernel


@pytest.mark.parametrize("c", [[-1, 0, 1], [0.3 - 0.2j, 0.7 + 0.1j, 1.5],
                               [2.0, -1j, 0.25]])
def test_degree_two_vector_equals_old_paths(c):
    poly = Poly1(c)
    rng = np.random.default_rng(0)
    v = cloud(rng, 500)
    br = _preimages(poly.coeffs, v)
    assert br.shape == (2, 500)
    assert_bit_equal(br[0], old_pick(poly, v, np.zeros(500, dtype=int)))
    assert_bit_equal(br[1], old_pick(poly, v, np.ones(500, dtype=int)))
    assert_bit_equal(br.ravel(), old_all(poly, v))


@pytest.mark.parametrize("f", [make_Fa(-1), make_Fa(0.3 + 0.1j),
                               make_product(Poly1([0, 0, 1]),
                                            Poly1([-0.5j, 0, 1]))])
def test_degree_two_table_without_linear_term_equals_sqrt_path(f):
    # these fibers are monic: (-b +- sqrt(-4 a (c0 - w))) / 2a with b = 0
    # and a = 1 is +-sqrt(w - c0) bit for bit
    rng = np.random.default_rng(1)
    z, w = cloud(rng, 2000, 1.5), cloud(rng, 2000)
    picks = rng.integers(0, 2, 2000)
    br = _preimages(npoly.polyval(z, f.q.coeffs), w)
    assert_bit_equal(br[picks, np.arange(2000)],
                     old_sqrt_step(f, z, w, picks))


@pytest.mark.parametrize("lead", [3.0, 1j, -0.7 + 0.2j])
def test_non_monic_table_without_linear_term_has_the_sqrt_path_roots(lead):
    # sqrt(4 a y) / 2a is sqrt(y / a) only up to rounding and sign: the
    # formula and the square-root path agree on the pair of preimages, but
    # for complex a they may label the two the other way round
    f = make_product(Poly1([0, 0, 1]), Poly1([-1, 0, lead]))
    rng = np.random.default_rng(4)
    z, w = cloud(rng, 5000, 1.5), cloud(rng, 5000)
    br = _preimages(npoly.polyval(z, f.q.coeffs), w)
    root = old_sqrt_step(f, z, w, np.zeros(5000, dtype=int))
    tol = 4 * np.finfo(float).eps * np.abs(root)
    same = np.abs(br[0] - root) <= tol
    assert np.all(same | (np.abs(br[0] + root) <= tol))
    assert np.all(np.abs(br[1] + br[0]) <= tol)


def test_table_with_linear_term_equals_per_point_loop():
    rng = np.random.default_rng(2)
    z, w = cloud(rng, 1000, 1.5), cloud(rng, 1000)
    picks = rng.integers(0, 2, 1000)
    br = _preimages(npoly.polyval(z, LINEAR.q.coeffs), w)
    assert_bit_equal(br[picks, np.arange(1000)],
                     old_fiber_loop(LINEAR, z, w, picks))


def test_table_with_complex_linear_term_is_within_ulps_of_per_point_loop():
    # The per-point loop squared each b with numpy's product of two scalars,
    # which rounds both partial products; the table squares all b with the
    # array loop, which may fuse a multiply and an add.  For complex b the
    # branches may then differ in the last bits: with numpy 2.4 on an
    # AVX-512 x86-64 machine, 355 of 10^5 did, by a relative error of at
    # most 7.5 eps after the cancellation in the discriminant.
    rng = np.random.default_rng(2)
    z, w = cloud(rng, 20000, 1.5), cloud(rng, 20000)
    picks = rng.integers(0, 2, 20000)
    br = _preimages(npoly.polyval(z, COMPLEX_LINEAR.q.coeffs), w)
    old = old_fiber_loop(COMPLEX_LINEAR, z, w, picks)
    err = np.abs(br[picks, np.arange(20000)] - old)
    assert np.all(err <= 16 * np.finfo(float).eps * np.abs(old))


def test_degree_three_columns_are_shifted_roots():
    rng = np.random.default_rng(3)
    z, w = cloud(rng, 40, 1.0), cloud(rng, 40)
    vec = _preimages(CUBIC_P.coeffs, w)
    table = _preimages(npoly.polyval(z, CUBIC_SKEW.q.coeffs), w)
    assert vec.shape == table.shape == (3, 40)
    for i in range(40):
        assert_bit_equal(vec[:, i], roots(CUBIC_P - Poly1([w[i]])))
        g = fiber_poly(CUBIC_SKEW, z[i])
        assert_bit_equal(table[:, i], roots(g - Poly1([w[i]])))


@pytest.mark.parametrize("f, n, burn_in", [(LINEAR, 300, 100),
                                           (CUBIC_SKEW, 12, 15)])
def test_J2_equals_per_point_loop(f, n, burn_in):
    new = sample_J2_inverse(f, n, seed=5, burn_in=burn_in).points
    assert_bit_equal(new, old_J2(f, n, 5, burn_in))


# ---- the degree-3 samplers


def test_degree_three_base_sample_is_the_same_tree():
    n = 3 ** 7   # the whole tree, so only the order can differ
    new = sample_base_julia(CUBIC_P, n, seed=4).points
    assert_bit_equal(np.sort(new), np.sort(old_base_sample(CUBIC_P, n, 4)))
    image = PointCloud(CUBIC_P(new))
    assert directed_hausdorff(image, PointCloud(new)) < 0.05


def test_degree_three_fiber_sample_is_the_same_tree():
    q = Poly1([0.2 - 0.1j, 0.4, 0, 1])
    f = make_product(CUBIC_P, q)
    n = 3 ** 7
    new = sample_fiber_julia(f, 0.3, n, depth=30, seed=4).points
    old = old_fiber_sample(f, 0.3, n, 30, 4)
    assert_bit_equal(np.sort(new), np.sort(old))
    image = PointCloud(q(new))
    assert directed_hausdorff(image, PointCloud(new)) < 0.05


# ---- escaping base orbits


@pytest.mark.parametrize("f, z", [
    (make_fig3(), 100.0),
    (make_product(Poly1([0, 0, 0, 1]), Poly1([0.2, -0.5, 0, 1])), 2.0),
])
def test_fiber_over_escaping_base_point_is_a_numerical_error(f, z):
    with pytest.raises(NumericalError, match="not finite"):
        sample_fiber_julia(f, z, 300)


@pytest.mark.parametrize("c", [[np.nan, 0, 1], [1, np.inf, 1],
                               [0, 1, complex(1, np.nan)]])
def test_roots_of_non_finite_coefficients_raise(c):
    with pytest.raises(RootFindError, match="non-finite"):
        roots(Poly1(c))
