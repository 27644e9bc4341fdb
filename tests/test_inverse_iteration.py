"""The backward step of the inverse-iteration samplers.

`sets._branch` with every branch is checked bit for bit (through
`.view(np.uint64)`) against the separate paths it replaced: the one-branch
and all-branch quadratic formulas, the square-root path for fibers with no
linear w term, and the per-point `fiber_poly` loop.  At degree 3 each
column must equal the `roots` of its shifted polynomial, and the base and
fiber samplers must hold the same complete preimage tree as the
level-by-level expansion they replaced (in another order).

The chosen-branch kernel and the pull-back over many rows are checked bit
for bit against the one-row code they replaced: every branch followed by a
random pick, the pull-back of one row, and `sample_fiber_julia` one base
point at a time.  `sample_J2_inverse` is checked bit for bit against a
loop over its chains, then over the leaves of their trees and their random
tails, one point at a time, and its points must map onto their tree
leaves and chain ends.  Two premises make
that exact, and are tested here too: numpy's out-of-place array arithmetic
rounds an element the same at every array length and layout, and one
`integers(0, d, n)` draw equals n one-element draws.
"""

from itertools import repeat

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import example, given, settings, strategies as st

from skewdyn.errors import NumericalError, PreconditionError
from skewdyn.families import make_Fa, make_fig3, make_product
from skewdyn.poly import Poly1, Poly2, RootFindError, SkewProduct, \
    fiber_poly, roots
from skewdyn.sets import PointCloud, _branch, _repelling_fixed_points, \
    J2_TAIL_STEPS, J2_TREE_LEVELS, _sample_fibers, _square, _tree_levels, \
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
    z = _repelling_fixed_points(p)[:1]
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
    br = _branch(poly.coeffs, v)
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
    br = _branch(npoly.polyval(z, f.q.coeffs), w)
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
    br = _branch(npoly.polyval(z, f.q.coeffs), w)
    root = old_sqrt_step(f, z, w, np.zeros(5000, dtype=int))
    tol = 4 * np.finfo(float).eps * np.abs(root)
    same = np.abs(br[0] - root) <= tol
    assert np.all(same | (np.abs(br[0] + root) <= tol))
    assert np.all(np.abs(br[1] + br[0]) <= tol)


def test_table_with_linear_term_equals_per_point_loop():
    rng = np.random.default_rng(2)
    z, w = cloud(rng, 1000, 1.5), cloud(rng, 1000)
    picks = rng.integers(0, 2, 1000)
    br = _branch(npoly.polyval(z, LINEAR.q.coeffs), w)
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
    br = _branch(npoly.polyval(z, COMPLEX_LINEAR.q.coeffs), w)
    old = old_fiber_loop(COMPLEX_LINEAR, z, w, picks)
    err = np.abs(br[picks, np.arange(20000)] - old)
    assert np.all(err <= 16 * np.finfo(float).eps * np.abs(old))


def test_degree_three_columns_are_shifted_roots():
    rng = np.random.default_rng(3)
    z, w = cloud(rng, 40, 1.0), cloud(rng, 40)
    vec = _branch(CUBIC_P.coeffs, w)
    table = _branch(npoly.polyval(z, CUBIC_SKEW.q.coeffs), w)
    assert vec.shape == table.shape == (3, 40)
    for i in range(40):
        assert_bit_equal(vec[:, i], roots(CUBIC_P - Poly1([w[i]])))
        g = fiber_poly(CUBIC_SKEW, z[i])
        assert_bit_equal(table[:, i], roots(g - Poly1([w[i]])))


@pytest.mark.parametrize("f, n, burn_in", [(LINEAR, 300, 100),
                                           (CUBIC_SKEW, 12, 15)])
def test_J2_equals_per_point_loop(f, n, burn_in):
    new = sample_J2_inverse(f, n, seed=5, burn_in=burn_in).points
    assert_bit_equal(new, ref_J2(f, n, 5, burn_in))


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


# ---- the one-row pull-back, kept here as it was before rows were batched


def prev_preimages(c, values):
    """Every branch as (d, n), for a vector or a (d + 1, n) table."""
    d = len(c) - 1
    if d == 2:
        a, b, c0 = c[2], c[1], c[0]
        disc = np.sqrt(b * b - 4.0 * a * (c0 - values))
        return np.array([(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)])
    out = np.empty((d, len(values)), dtype=complex)
    cols = c.T if c.ndim == 2 else repeat(c)
    for i, (col, v) in enumerate(zip(cols, values)):
        shifted = col.copy()
        shifted[0] -= v
        out[:, i] = roots(Poly1(shifted))
    return out


def prev_pick(branches, rng):
    d, n = branches.shape
    return branches[rng.integers(0, d, n), np.arange(n)]


def prev_pullback(maps, w, n_random, n_points, rng):
    for i, c in enumerate(maps):
        branches = prev_preimages(c, w)
        w = prev_pick(branches, rng) if i < n_random else branches.ravel()
    idx = rng.permutation(len(w))[:n_points]
    return w[np.sort(idx)]


def prev_base_sample(p, n_points, seed, burn_in):
    rng = np.random.default_rng(seed)
    z = _repelling_fixed_points(p)[:1]
    maps = repeat(p.coeffs, burn_in + _tree_levels(p.degree, n_points))
    return prev_pullback(maps, z, burn_in, n_points, rng)


def prev_fiber_sample(f, z, n_points, depth, seed):
    rng = np.random.default_rng(seed)
    chain = np.array(f.p.orbit(z, depth), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        maps = npoly.polyval(chain, f.q.coeffs)
    if not np.isfinite(maps).all():
        raise NumericalError(f"a fiber map along the base orbit of {z} is "
                             "not finite (the orbit escapes)")
    tree_levels = min(_tree_levels(f.degree, n_points), depth)
    return prev_pullback(maps.T[::-1], np.array([2.0 + 0j]),
                         depth - tree_levels, n_points, rng)


def ref_J2(f, n_points, seed, burn_in):
    """The J2 sampler one chain and one point at a time: m chains take
    burn_in - L - K random steps, each leaf of the complete tree on the
    next L levels is found by its own descent from its chain end, its
    branches read from its index, and each kept leaf takes its K random
    steps alone."""
    d = f.degree
    levels = min(J2_TREE_LEVELS.get(d, 0), burn_in)
    tail = min(J2_TAIL_STEPS, burn_in - levels)
    m = -(-n_points // d ** (2 * levels))
    rng = np.random.default_rng(seed)
    draws = [(rng.integers(0, d, m), rng.integers(0, d, m))
             for _ in range(burn_in - levels - tail)]

    def step(z, w, kz, kw):
        z = prev_preimages(f.p.coeffs, z)[kz]
        return z, prev_preimages(npoly.polyval(z, f.q.coeffs), w)[kw]

    ends = []
    for j in range(m):
        z, w = _repelling_fixed_points(f.p)[:1], np.array([2.0 + 0j])
        for kz, kw in draws:
            z, w = step(z, w, kz[j], kw[j])
        ends.append((z, w))
    leaves = []
    for i in range(m * d ** (2 * levels)):
        (z, w), digits = ends[i % m], i // m
        for _ in range(levels):   # the first level is the lowest digit
            digits, kw_kz = divmod(digits, d * d)
            z, w = step(z, w, *reversed(divmod(kw_kz, d)))
        leaves.append((z, w))
    if len(leaves) > n_points:
        keep = np.sort(rng.permutation(len(leaves))[:n_points])
        leaves = [leaves[i] for i in keep]
    draws = [(rng.integers(0, d, n_points), rng.integers(0, d, n_points))
             for _ in range(tail)]
    out = np.empty((n_points, 2), dtype=complex)
    for i, (z, w) in enumerate(leaves):
        for kz, kw in draws:
            z, w = step(z, w, kz[i], kw[i])
        out[i] = z[0], w[0]
    return out


# ---- the premises


def wide(rng, n):
    """n complex values with moduli spanning e^-20 .. e^20."""
    return (np.exp(rng.uniform(-20, 20, n))
            * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))


def words(x):
    return np.ascontiguousarray(x, dtype=complex).view(np.uint64).reshape(-1, 2)


def n_differ(a, b):
    return int((words(a) != words(b)).any(axis=1).sum())


BINARY = {"mul": np.multiply, "add": np.add, "sub": np.subtract,
          "div": np.divide}


@pytest.mark.parametrize("op", BINARY)
def test_array_arithmetic_rounds_alike_at_every_length_and_layout(op):
    ufunc = BINARY[op]
    rng = np.random.default_rng(20)
    x, y = wide(rng, 20000), wide(rng, 20000)
    full = ufunc(x, y)
    # one element at a time, every prefix length, and strided
    ones = np.concatenate([ufunc(x[i:i + 1], y[i:i + 1]) for i in range(2000)])
    assert n_differ(ones, full[:2000]) == 0
    for n in (1, 2, 3, 5, 8, 17, 192, 3600):
        assert n_differ(ufunc(x[:n], y[:n]), full[:n]) == 0
    assert n_differ(ufunc(x[::7], y[::7]), full[::7]) == 0
    # a scalar coefficient against an array, as a numpy scalar, as a
    # 0-d array, and as an (m, 1) column against (m, n) rows
    for s in x[:5]:
        want = ufunc(np.full(3600, s), y[:3600])
        assert n_differ(ufunc(s, y[:3600]), want) == 0
        assert n_differ(ufunc(np.asarray(s), y[:3600]), want) == 0
        assert n_differ(ufunc(y[:3600], s), ufunc(y[:3600], np.full(3600, s))) == 0
    rows = y[:3600].reshape(192 // 8, -1)
    col = x[:len(rows), None]
    assert n_differ(ufunc(col, rows),
                    np.array([ufunc(c, r) for c, r in zip(col[:, 0], rows)])) == 0
    # the kernel divides in place, one element too (an in-place product
    # of one element is rounded differently, see `poly._horner`)
    if op == "div":
        z = x.copy()
        z /= y
        assert n_differ(z, full) == 0
        for i in range(2000):
            z = x[i:i + 1].copy()
            z /= y[i]
            assert n_differ(z, full[i:i + 1]) == 0


def test_unary_ops_and_power_of_two_scaling_round_as_scalars():
    rng = np.random.default_rng(21)
    x = wide(rng, 20000)
    for op in (np.sqrt, np.negative, lambda v: 4.0 * v, lambda v: 2.0 * v):
        full = op(x)
        assert n_differ(np.array([op(v) for v in x]), full) == 0
        assert n_differ(np.concatenate([op(x[i:i + 1]) for i in range(2000)]),
                        full[:2000]) == 0
        assert n_differ(op(x[:, None]).ravel(), full) == 0


def test_square_rounds_as_the_product_of_scalars():
    # numpy's array loop may fuse a multiply and an add in a complex
    # product (with AVX-512 it does, for about 3 in 10 squares of normal
    # values), its product of two scalars does not; _square rounds as the
    # scalars, so a row's b * b has the bits of its one-row call
    rng = np.random.default_rng(22)
    for x in (wide(rng, 20000),
              rng.standard_normal(20000) + 1j * rng.standard_normal(20000)):
        scalar = np.array([v * v for v in x])
        assert n_differ(_square(x), scalar) == 0
        assert n_differ(_square(x[:, None, None]).ravel(), scalar) == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_split_and_joined_integer_draws_are_equal(d):
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        split = np.concatenate([a.integers(0, d, 1) for _ in range(60)])
        assert np.array_equal(split, b.integers(0, d, 60))
        # the stream goes on alike
        assert np.array_equal(a.permutation(37), b.permutation(37))
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    rows = np.array([a.integers(0, d, 3600) for _ in range(200)])
    assert np.array_equal(rows, b.integers(0, d, (200, 3600)))


# ---- the chosen-branch kernel


coefficient = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                 allow_infinity=False)
leading = coefficient.filter(lambda c: abs(c) > 0.25)


@st.composite
def tables(draw, n):
    """A degree-2 or -3 coefficient table (d + 1, n): every coefficient a
    vector or varying with the value, b complex."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = (rng.standard_normal((d + 1, n)) + 1j * rng.standard_normal((d + 1, n)))
    c[-1] = draw(leading) + 0.1 * c[-1]
    return c


@settings(max_examples=60, deadline=None)
@given(tables(16), st.integers(0, 2 ** 32 - 1))
def test_chosen_branch_equals_every_branch_then_pick(c, seed):
    d, n = len(c) - 1, c.shape[1]
    rng = np.random.default_rng(seed)
    v, k = 3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), \
        rng.integers(0, d, n)
    for coeffs in (c, c[:, 0]):   # a per-value table, a vector
        want = prev_preimages(coeffs, v)
        assert_bit_equal(_branch(coeffs, v, k), want[k, np.arange(n)])
        assert_bit_equal(_branch(coeffs, v), want)


@settings(max_examples=60, deadline=None)
@given(tables(5), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@example(np.array([[1 + 2j] * 3, [0.3 + 0.7j, -1.1 + 0.9j, 2.0 - 2.0j],
                   [1.0] * 3]), 4, 0)
def test_rows_have_the_bits_of_their_own_vectors(c, n, seed):
    # one polynomial per row, with complex b: each row must equal the call
    # with its own coefficient vector, which squares b as a scalar
    d, m = len(c) - 1, c.shape[1]
    rng = np.random.default_rng(seed)
    v = 3 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    k = rng.integers(0, d, (m, n))
    chosen, every = _branch(c[..., None], v, k), _branch(c[..., None], v)
    assert chosen.shape == (m, n) and every.shape == (m, d, n)
    for j in range(m):
        want = prev_preimages(c[:, j], v[j])
        assert_bit_equal(chosen[j], want[k[j], np.arange(n)])
        assert_bit_equal(every[j], want)


# ---- the samplers over rows


def random_skew(draw, d):
    """A degree-d skew product with complex coefficients, q with terms in
    z^i w^j for i + j <= d (so b varies with z), q monic-ish in w."""
    p = draw(st.lists(st.complex_numbers(max_magnitude=0.6), min_size=d,
                      max_size=d))
    q = np.zeros((d + 1, d + 1), dtype=complex)
    for i in range(d + 1):
        for j in range(d + 1 - i):
            q[i, j] = draw(coefficient) / 4
    q[0, d] = draw(leading)
    return SkewProduct(p=Poly1(p + [1.0]), q=Poly2(q))


def sizes(d, depth):
    """n_points around the tree sizes d^L, and above d^depth."""
    return sorted({1, d - 1 or 1, d, d + 1, d * d - 1, d * d, d * d + 1,
                   d ** depth + 1} - {0})


@st.composite
def fiber_rows(draw):
    """A skew product and `_sample_fibers` arguments for it: depth, size,
    base points and seeds."""
    d = draw(st.sampled_from([2, 3]))
    f = random_skew(draw, d)
    depth = draw(st.integers(1, 12 if d == 2 else 5))
    n = draw(st.sampled_from(sizes(d, depth)))
    m = draw(st.integers(1, 5))
    zs = draw(st.lists(st.complex_numbers(max_magnitude=1.6), min_size=m,
                       max_size=m))
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=m,
                          max_size=m))
    return f, depth, n, zs, seeds


# p = z^2, q = w^2 + z w + 0.01 z^2 over z0: the base orbit reaches 5e154 in
# 9 steps, where the fiber maps are still finite but the quadratic formula's
# b * b overflows, and the reference pull-back's points are NaN
OVERFLOW_MAP = SkewProduct(p=Poly1([0, 0, 1]),
                           q=Poly2([[0, 0, 1], [0, 1, 0], [0.01, 0, 0]]))
OVERFLOW_Z = 4.020618360612923


@settings(max_examples=40, deadline=None)
@given(fiber_rows())
@example((OVERFLOW_MAP, 9, 4, [OVERFLOW_Z], [0]))
def test_fiber_rows_equal_one_row_pullback(case):
    f, depth, n, zs, seeds = case
    rows = _sample_fibers(f, zs, n, seeds, depth)
    assert len(rows) == len(zs)
    for z, seed, row in zip(zs, seeds, rows):
        try:
            # the reference squares b outside any errstate
            with np.errstate(over="ignore", invalid="ignore"):
                want = prev_fiber_sample(f, z, n, depth, seed)
        except NumericalError:
            want = None
        # a sample whose points are not all finite is a numerical failure
        if want is None or not np.isfinite(want).all():
            assert row is None
            with pytest.raises(NumericalError, match="not finite"):
                sample_fiber_julia(f, z, n, depth, seed)
            continue
        assert_bit_equal(row, want)
        assert_bit_equal(sample_fiber_julia(f, z, n, depth, seed).points,
                         want)


def test_fiber_sample_over_an_overflowing_quadratic_formula():
    # every RuntimeWarning is an error in this suite: the reference's NaN
    # points must make the sampler raise NumericalError without one, and
    # give None for that row beside a finite row, which keeps its bits
    with np.errstate(over="ignore", invalid="ignore"):
        want = [prev_fiber_sample(OVERFLOW_MAP, z, 4, 9, 0)
                for z in (OVERFLOW_Z, 0.5)]
    assert np.isnan(want[0]).all() and np.isfinite(want[1]).all()
    with pytest.raises(NumericalError, match="not finite"):
        sample_fiber_julia(OVERFLOW_MAP, OVERFLOW_Z, 4, 9, 0)
    bad, good = _sample_fibers(OVERFLOW_MAP, [OVERFLOW_Z, 0.5], 4, [0, 0], 9)
    assert bad is None
    assert_bit_equal(good, want[1])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_base_sample_equals_one_row_pullback(data):
    d = data.draw(st.sampled_from([2, 3]))
    p = Poly1(data.draw(st.lists(st.complex_numbers(max_magnitude=0.6),
                                 min_size=d, max_size=d)) + [1.0])
    burn_in = data.draw(st.integers(0, 30))
    n = data.draw(st.sampled_from(sizes(d, 5)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    assert_bit_equal(sample_base_julia(p, n, seed, burn_in).points,
                     prev_base_sample(p, n, seed, burn_in))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_J2_equals_pick_of_every_branch(data):
    d = data.draw(st.sampled_from([2, 3]))
    f = random_skew(data.draw, d)
    # at d = 2, up to 3 trees of d^(2L) leaves
    levels = J2_TREE_LEVELS.get(d, 0)
    n = data.draw(st.integers(1, max(40, 3 * d ** (2 * levels))
                              if d == 2 else 8))
    burn_in = data.draw(st.integers(1, 16))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    assert_bit_equal(sample_J2_inverse(f, n, seed, burn_in).points,
                     ref_J2(f, n, seed, burn_in))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_J2_points_map_onto_their_chain_ends(data):
    # a sample of m whole trees: f^K takes each point to a distinct leaf,
    # and f^L takes the leaves to their chain ends, so the images under
    # f^(K + L) fall on m distinct points, each the image of d^(2L) points
    d = data.draw(st.sampled_from([2, 3]))
    f = random_skew(data.draw, d)
    levels, m = J2_TREE_LEVELS.get(d, 0), data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    z, w = sample_J2_inverse(f, m * d ** (2 * levels), seed, 30).points.T

    def same(z, w):
        size = 1 + np.maximum(np.abs(z), np.abs(w))
        return np.abs(z[:, None] - z) + np.abs(w[:, None] - w) < 1e-6 * size

    for _ in range(J2_TAIL_STEPS):
        z, w = f.p(z), f.q(z, w)
    assert (same(z, w).sum(axis=1) == 1).all()
    for _ in range(levels):
        z, w = f.p(z), f.q(z, w)
    ends = same(z, w)
    assert (ends.sum(axis=1) == d ** (2 * levels)).all()
    assert len({row.tobytes() for row in ends}) == m


@pytest.mark.parametrize("f, good, z_bad", [
    (make_fig3(), [5.0, -4.0, 5.0], 100.0),
    (make_product(Poly1([0, 0, 0, 1]), Poly1([0.2, -0.5, 0, 1])),
     [0.3, 0.1 + 0.2j, -0.4j], 2.0),
])
def test_a_row_over_an_escaping_base_orbit_leaves_the_others(f, good, z_bad):
    zs = [good[0], good[1], z_bad, good[2]]
    seeds = [3, 4, 5, 6]
    rows = _sample_fibers(f, zs, 30, seeds, depth=12)
    assert rows[2] is None
    for j in (0, 1, 3):
        assert_bit_equal(rows[j], prev_fiber_sample(f, zs[j], 30, 12,
                                                    seeds[j]))
    assert _sample_fibers(f, [z_bad], 30, [1], depth=12) == [None]
    with pytest.raises(NumericalError, match=f"orbit of {z_bad} is not"):
        sample_fiber_julia(f, z_bad, 30, depth=12)


def test_the_large_cloud_is_the_one_row_pullback():
    f = make_Fa(-1)
    assert_bit_equal(sample_fiber_julia(f, 0.5, 50000, seed=1).points,
                     prev_fiber_sample(f, 0.5, 50000, 50, 1))


# ---- degenerate sizes


@pytest.mark.parametrize("kwargs", [{"n_points": 0}, {"n_points": -3},
                                    {"n_points": 300, "depth": 0}])
def test_fiber_sampler_rejects_degenerate_sizes(kwargs):
    with pytest.raises(PreconditionError):
        sample_fiber_julia(make_Fa(-1), 0.5, **kwargs)
    with pytest.raises(PreconditionError):
        _sample_fibers(make_Fa(-1), [0.5, 1.0], seeds=[1, 2], **kwargs)


@pytest.mark.parametrize("n, burn_in", [(3, 0), (0, 100), (-1, 10)])
def test_J2_sampler_rejects_degenerate_sizes(n, burn_in):
    with pytest.raises(PreconditionError):
        sample_J2_inverse(make_Fa(-1), n, burn_in=burn_in)


def test_smallest_sizes_are_pulled_back():
    f = make_Fa(-1)
    one = sample_fiber_julia(f, 0.5, 1, depth=1).points
    assert one.shape == (1,) and one[0] != 2.0
    assert sample_J2_inverse(f, 1, burn_in=1).points.shape == (1, 2)
