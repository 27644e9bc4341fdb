import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from conftest import poly2_reference
from hypothesis import given, settings, strategies as st

from skewdyn import poly
from skewdyn.families import make_Fa, make_fig3, make_product
from skewdyn.poly import (
    Poly1,
    Poly2,
    RootFindError,
    SkewProduct,
    check_regular,
    fiber_poly,
    roots,
)


def test_eval_skew_two_cycle():
    f = make_Fa(-1)
    assert (f.p(1.0), f.q(1.0, 0.0)) == (1.0, -1.0)
    assert (f.p(1.0), f.q(1.0, -1.0)) == (1.0, 0.0)


def test_eval_skew_fixed_point_of_fig3():
    f = make_fig3()
    assert f.p(5.0) == 5.0 and f.q(5.0, 0.0) == 0.0
    # the fiber over 5 is w -> w^2
    assert abs(f.q(5.0, 0.5) - 0.25) < 1e-14


def test_eval_skew_product():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    assert (f.p(2.0), f.q(2.0, 0.0)) == (4.0, 0.0)


def test_check_regular_accepts_fa():
    for a in (0, -1, 2, 1j):
        ok, diag = check_regular(make_Fa(a))
        assert ok, diag


def test_check_regular_rejects_zero_w_top_coefficient():
    # q = z w + z^2: no w^2 term
    qc = np.zeros((3, 2), dtype=complex)
    qc[1, 1] = 1.0
    qc[2, 0] = 1.0
    f = SkewProduct(p=Poly1([0, 0, 1]), q=Poly2(qc))
    ok, diag = check_regular(f)
    assert not ok


def test_check_regular_rejects_z_dependent_top_coefficient():
    qc = np.zeros((2, 3), dtype=complex)
    qc[0, 2] = 1.0
    qc[1, 2] = 0.5
    f = SkewProduct(p=Poly1([0, 0, 1]), q=Poly2(qc))
    ok, _ = check_regular(f)
    assert not ok


def test_check_regular_s1s2(s1s2_basic):
    f, _, _, _ = s1s2_basic
    ok, diag = check_regular(f)
    assert ok, diag


def test_check_regular_affine_conjugacy_invariant():
    # conjugating by (z, w) -> (z, alpha w + beta) preserves the skew form
    # and must preserve the regularity verdict
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = complex(rng.standard_normal(), rng.standard_normal())
        f = make_Fa(a)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        if abs(alpha) < 1e-3:
            alpha += 1.0
        beta = complex(rng.standard_normal(), rng.standard_normal())
        d = f.q.coeffs.shape[1] - 1
        # q~(z, w) = (q(z, alpha w + beta) - beta) / alpha
        aff = np.array([beta, alpha], dtype=complex)
        new = np.zeros((f.q.coeffs.shape[0], 1), dtype=complex)
        acc = np.array([[1.0 + 0j]])
        cols = [np.zeros(f.q.coeffs.shape[0], dtype=complex)
                for _ in range(d + 1)]
        for j in range(d + 1):
            # coefficient rows of (alpha w + beta)^j
            pw = np.array([1.0 + 0j])
            for _ in range(j):
                pw = npoly.polymul(pw, aff)
            for k, ck in enumerate(pw):
                cols[k] = cols[k] + f.q.coeffs[:, j] * ck
        qt = np.column_stack(cols)
        qt[0, 0] -= beta
        qt = qt / alpha
        g = SkewProduct(p=f.p, q=Poly2(qt))
        assert check_regular(g)[0] == check_regular(f)[0]


def test_fiber_poly_examples():
    f = make_Fa(-1)
    g = fiber_poly(f, 1.0)
    assert np.allclose(g.coeffs, [-1.0, 0.0, 1.0])
    h = fiber_poly(make_fig3(), -4.0)
    assert np.allclose(h.coeffs, [-0.9, 0.0, 1.0], atol=1e-14)
    prod = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    k = fiber_poly(prod, 0.3 + 0.1j)
    assert np.allclose(k.coeffs, [0.0, 0.0, 1.0])


def test_roots_exact_quadratic():
    r = roots(Poly1([1.0, 0.0, 1.0]))
    assert sorted(np.round(r.imag, 10)) == [-1.0, 1.0]
    assert np.allclose(r.real, 0.0, atol=1e-10)


def test_roots_multiplicity():
    # (w - 1)^2 (w + 2)
    p = Poly1(npoly.polyfromroots([1.0, 1.0, -2.0]))
    r = roots(p)
    assert len(r) == 3
    assert np.min(np.abs(r - 1.0)) < 1e-5
    assert np.min(np.abs(r + 2.0)) < 1e-8


def test_roots_against_companion_oracle():
    rng = np.random.default_rng(1)
    for deg in (3, 5, 8, 12, 16):
        for _ in range(5):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            c[-1] += 3.0  # keep the leading coefficient well away from 0
            got = roots(Poly1(c))
            # independent oracle: eigenvalues of the companion matrix
            oracle = np.roots(c[::-1])
            oracle = oracle[np.lexsort((oracle.imag, oracle.real))]
            # match by nearest-neighbor pairing
            for x in got:
                assert np.min(np.abs(oracle - x)) < 1e-6


def test_roots_reconstruction():
    rng = np.random.default_rng(2)
    for deg in (4, 9, 16):
        rts = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
        rts *= 2.0  # well-separated with high probability
        lead = complex(rng.standard_normal() + 2.0)
        p = Poly1(npoly.polyfromroots(rts) * lead)
        r = roots(p)
        q = Poly1(npoly.polyfromroots(r) * lead)
        scale = np.max(np.abs(p.coeffs))
        assert np.max(np.abs(p.coeffs - q.coeffs)) < 1e-7 * scale


def test_orbit_points():
    p = Poly1([-1.0, 0.0, 1.0])
    assert p.orbit(0.0, 5) == [0j, -1 + 0j, 0j, -1 + 0j, 0j]
    assert all(type(x) is complex for x in p.orbit(0.5, 3))
    assert p.orbit(0.5, 1) == [0.5 + 0j]
    assert p.orbit(0.5, 0) == []


coefficient = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                 allow_infinity=False)
pure_imaginary = st.builds(complex, st.sampled_from([0.0, -0.0]),
                           st.floats(min_value=-1e3, max_value=1e3,
                                     allow_nan=False).filter(bool))
start = st.complex_numbers(max_magnitude=1e200, allow_nan=False,
                           allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(coefficient, min_size=2, max_size=5),
       st.one_of(coefficient.filter(bool), pure_imaginary), start)
def test_orbit_bit_equal_to_polyval(lower, top, z):
    # degree 2 to 5; large starts overflow to inf and then to NaN
    p = Poly1(lower + [top])
    x, ref = complex(z), [complex(z)]
    with np.errstate(all="ignore"):
        for _ in range(39):
            x = complex(npoly.polyval(x, p.coeffs))
            ref.append(x)
    got = np.array(p.orbit(z, 40), dtype=complex)
    assert np.array_equal(got.view(np.uint64),
                          np.array(ref, dtype=complex).view(np.uint64))
    assert p.orbit(z, 0) == []


_special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300,
                            -1e-300])
_generic = st.floats(-4.0, 4.0, width=64)
any_complex = st.one_of(
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.builds(complex, _special, _special),
    st.builds(complex, _generic, _generic))


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficient, min_size=0, max_size=5),
       st.one_of(coefficient.filter(bool), pure_imaginary),
       st.lists(any_complex, min_size=0, max_size=40),
       st.sampled_from(["1-d", "0-d", "strided"]))
def test_poly1_call_bit_equal_to_polyval(lower, top, xs, layout):
    # inf, NaN and signed zeros in the input; generic values make the SIMD
    # and scalar roundings differ, notably on 1-element arrays
    p = Poly1(lower + [top])
    x = np.array(xs, dtype=complex)
    if layout == "0-d" and xs:
        x = x[0, ...]
    elif layout == "strided":
        x = x[::-2]
    with np.errstate(all="ignore"):
        got, want = p(x), npoly.polyval(x, p.coeffs)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.atleast_1d(got).view(np.uint64),
                          np.atleast_1d(want).view(np.uint64))


def test_poly1_call_bit_equal_to_polyval_on_short_arrays():
    # numpy rounds an in-place product of one element with its scalar loop
    # and every other product with its SIMD loop; the two differ on about
    # 40% of generic inputs
    rng = np.random.default_rng(0)
    for n in [1, 2, 3] * 100:
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(Poly1(c)(x).view(np.uint64),
                              npoly.polyval(x, c).view(np.uint64))


def _horner_w_reference(b, w):
    """The Horner in w on a coefficient table that `critpost` stepped its
    cycle rows and cloud rows with before `poly._horner`: out of place from
    zeros."""
    acc = np.zeros(len(w), dtype=complex)
    for bj in b:
        acc = acc * w + bj
    return acc


def _bits(x, any_nan=False):
    a = np.array(x, dtype=complex, ndmin=1)
    if any_nan:  # every NaN as the one canonical NaN
        parts = a.view(float)
        parts[np.isnan(parts)] = np.nan
    return a.view(np.uint64)


def _assert_same_bits(got, want, any_nan=False):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(_bits(got, any_nan), _bits(want, any_nan))


_LAYOUTS = ["scalar", "0-d", "one", "long", "broadcast", "scalar w"]


def _layout(layout, zs, ws, k):
    """(z, w) in one of the argument layouts the kernels meet: Python
    scalars, 0-d arrays, one element, a contiguous array, an (n, 1) column
    of z against (n, k) of w, or a Python scalar w over an array z."""
    if layout == "scalar":
        return zs[0], ws[0]
    if layout == "0-d":
        return np.array(zs[0]), np.array(ws[0])
    if layout == "one":
        return np.array(zs[:1]), np.array(ws[:1])
    if layout == "long":
        return np.array(zs), np.array(ws)
    if layout == "broadcast":
        n = len(zs) // k
        return (np.array(zs[:n]).reshape(n, 1),
                np.array(ws[:n * k]).reshape(n, k))
    return np.array(zs), ws[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data(),
       st.lists(st.tuples(any_complex, any_complex), min_size=12,
                max_size=24),
       st.integers(1, 6), st.sampled_from(_LAYOUTS))
def test_horner_kernel_bit_equal_to_old_loops(rows, cols, data, zw, k,
                                              layout):
    # q with 1 to 4 columns (one column: q depends on z alone) and p in the
    # same coefficients; values include inf, NaN and signed zeros.  The old
    # loops start from zeros*w + top, the kernel from top + w*0 as polyval
    # does: when both terms are NaN, x86 keeps the first one's sign, so a
    # NaN input is compared to them as NaN, all else bit for bit
    qc = np.array(data.draw(st.lists(st.lists(coefficient, min_size=cols,
                                               max_size=cols),
                                      min_size=rows, max_size=rows)),
                  dtype=complex)
    q, p = Poly2(qc), Poly1(qc[:, -1])
    z, w = _layout(layout, *map(list, zip(*zw)), k)
    nan_in = bool(np.isnan(np.array(zw, dtype=complex).view(float)).any())
    with np.errstate(all="ignore"):
        want = poly2_reference(q, z, w)
        _assert_same_bits(q(z, w), want, nan_in)
        b = [npoly.polyval(np.asarray(z, dtype=complex), c) for c in qc.T]
        got = poly._horner(b[::-1], np.asarray(w, dtype=complex))
        got = complex(got) if np.ndim(got) == 0 else got
        _assert_same_bits(got, want, nan_in)
        if np.ndim(w) == 1 and np.ndim(z) == 1:
            _assert_same_bits(poly._horner(np.array(b[::-1]), w),
                              _horner_w_reference(np.array(b[::-1]), w),
                              nan_in)
        if isinstance(w, np.ndarray):
            _assert_same_bits(p(w), npoly.polyval(w, p.coeffs))
        _assert_same_bits(poly._horner(p.coeffs[::-1], w),
                          npoly.polyval(w, p.coeffs))


def test_poly2_at_one_point_bit_equal_to_old_loop():
    # at a one-element z, one polyval table over all columns rounds other
    # than the per-column polyval in about 37% of one-column maps, and an
    # in-place product of one element other than out of place in about 40%
    # of 3 x 3 maps
    rng = np.random.default_rng(1)
    for _ in range(2000):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        q = Poly2((rng.standard_normal(shape)
                   + 1j * rng.standard_normal(shape)) * 10)
        z, w = complex(*rng.standard_normal(2) * 3), complex(
            *rng.standard_normal(2))
        for zz, ww in ((z, w), (np.array(z), np.array(w)),
                       (np.array([z]), np.array([w]))):
            _assert_same_bits(q(zz, ww), poly2_reference(q, zz, ww))


huge = st.complex_numbers(min_magnitude=1e150, allow_nan=False,
                          allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficient, min_size=0, max_size=5),
       st.one_of(coefficient.filter(bool), pure_imaginary),
       st.one_of(any_complex, huge))
def test_step_bit_equal_to_polyval(lower, top, x):
    p = Poly1(lower + [top])
    with np.errstate(all="ignore"):
        want = complex(npoly.polyval(x, p.coeffs))
    _assert_same_bits(p.step(x), want)


def test_deriv_built_once():
    p = Poly1([1.0, -2.0, 0.5j, 3.0])
    d = p.deriv()
    assert p.deriv() is d
    assert np.array_equal(d.coeffs, npoly.polyder(p.coeffs))
    assert Poly1([2.0]).deriv().coeffs.tolist() == [0j]


def test_poly1_coeffs_read_only():
    c = np.array([1.0, 0.0, 1.0], dtype=complex)
    p = Poly1(c)
    with pytest.raises(ValueError):
        p.coeffs[0] = 2.0
    c[0] = 2.0  # the caller's array is copied, not frozen
    assert p.coeffs[0] == 1.0


def _fallback_reference(core, tol):
    """The companion-matrix path of `roots` for a polynomial with no root at
    0: eigenvalues, four Newton steps (a root they make non-finite keeps its
    eigenvalue), and the raw eigenvalues instead when their worst residual
    is smaller and the polished roots miss the bound (a NaN residual counts
    as inf and misses it)."""
    raw = np.linalg.eigvals(npoly.polycompanion(core / core[-1]))
    x = raw
    dc = npoly.polyder(core)
    for _ in range(4):
        dv = npoly.polyval(x, dc)
        dv = np.where(dv == 0, 1e-300, dv)
        x = x - npoly.polyval(x, core) / dv
    x = np.where(np.isfinite(x), x, raw)

    def worst(r):
        res = np.abs(npoly.polyval(r, core))
        return np.max(np.where(np.isnan(res), np.inf, res))

    bound = tol * max(float(np.max(np.abs(core))), 1.0) \
        * max(1.0, float(np.max(np.abs(x)))) ** (len(core) - 1)
    if worst(x) > bound and worst(raw) < worst(x):
        return raw
    return x


def test_roots_solves_the_companion_matrix_once(monkeypatch):
    # passes at once: (w-1)(w-2)(w-3)(w-4i); fails its residual re-check,
    # which no float solve can meet: a sextic with a triple root, all its
    # roots in the unit disk, at tol 1e-20
    easy = Poly1(npoly.polyfromroots([1.0, 2.0, 3.0, 4j]))
    hard = Poly1(npoly.polyfromroots([0.5, 0.5, 0.5, 0.3j, -0.7, 0.2 - 0.6j]))
    with np.errstate(all="ignore"):
        want_easy = _fallback_reference(easy.coeffs, 1e-10)
        want_hard = _fallback_reference(hard.coeffs, 1e-20)
    eigvals, calls = np.linalg.eigvals, []

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(poly, "_aberth", lambda *a, **k: None)
    monkeypatch.setattr(np.linalg, "eigvals", counting)
    with np.errstate(all="ignore"):
        got = roots(easy)
        assert calls == [(4, 4)]
        order = np.lexsort((want_easy.imag, want_easy.real))
        assert np.array_equal(got, want_easy[order])
        calls.clear()
        with pytest.raises(RootFindError) as err:
            roots(hard, tol=1e-20)
    assert calls == [(6, 6)]
    assert np.array_equal(err.value.best.view(np.uint64),
                          want_hard.view(np.uint64))


@pytest.mark.parametrize("aberth", [True, False])
def test_roots_polish_keeps_roots_finite(monkeypatch, aberth):
    # the 8-step fiber composition of Fa(-1) over z = 1, minus w: the Newton
    # polish of its companion eigenvalues turns one of them into NaN
    g = fiber_poly(make_Fa(-1), 1.0)
    comp = g
    for _ in range(7):
        comp = g.compose(comp)
    hard = comp - Poly1([0.0, 1.0])
    if not aberth:
        monkeypatch.setattr(poly, "_aberth", lambda *a, **k: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        try:
            got = roots(hard, tol=1e-8)
        except RootFindError as e:
            got = e.best
    assert len(got) == 256 and np.all(np.isfinite(got))
    if not aberth:
        with np.errstate(all="ignore"):
            want = _fallback_reference(hard.coeffs[1:], 1e-8)
        want = np.append(want, 0j)  # the peeled root at 0
        order = np.lexsort((want.imag, want.real))
        assert np.array_equal(got.view(np.uint64), want[order].view(np.uint64))


def test_roots_nan_residual_is_a_failure(monkeypatch):
    # a NaN root used to pass: NaN > bound is False and max(1.0, nan) is 1.0
    easy = Poly1(npoly.polyfromroots([1.0, 2.0, 3.0, 4j]))
    monkeypatch.setattr(poly, "_aberth", lambda *a, **k: None)
    monkeypatch.setattr(poly, "_companion_eigvals",
                        lambda core: np.array([1.0, 2.0, 3.0, np.nan]) + 0j)
    with pytest.raises(RootFindError) as err:
        roots(easy)
    assert np.isnan(err.value.residuals[-1])


finite = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=2, max_size=5),
       st.lists(st.tuples(finite, finite), min_size=2, max_size=5),
       st.tuples(finite, finite))
def test_poly1_ring_laws(aa, bb, wv):
    p = Poly1([complex(x, y) for x, y in aa])
    q = Poly1([complex(x, y) for x, y in bb])
    w = complex(*wv)
    assert abs((p + q)(w) - (p(w) + q(w))) < 1e-8
    assert abs((p - q)(w) - (p(w) - q(w))) < 1e-8


def test_poly1_compose_evaluation():
    p = Poly1([1.0, -2.0, 3.0])
    q = Poly1([0.5, 1.0, 0.0, 2.0])
    w = 0.37 - 1.2j
    assert abs(p.compose(q)(w) - p(q(w))) < 1e-10
