import cmath
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy.spatial import cKDTree

from skewdyn.engine import Rect, _close_disk_chain, _trap_chains, \
    derive_escape_radius
from skewdyn.errors import PreconditionError
import skewdyn.sets
from skewdyn.families import airplane_beta, make_Fa, make_airplane_skew, \
    make_fig3, make_product
from skewdyn.poly import Poly1, Poly2, SkewProduct, fiber_poly
from skewdyn.sets import (
    CloudIndex,
    PointCloud,
    cloud_to_csv,
    directed_hausdorff,
    fiber_slice,
    hausdorff_distance,
    min_chordal_distance,
    sample_J2_inverse,
    sample_base_julia,
    sample_fiber_julia,
    slice_to_pgm,
    slice_to_ppm,
    sphere_embed,
)
from skewdyn.sets import (_as_real, _csv_rows, _distinct_rows, _escape_grid,
                          _fiber_traps, _grid_traps, _row_hash)


def test_base_julia_circle():
    cloud = sample_base_julia(Poly1([0, 0, 1]), 2000, seed=0)
    assert np.max(np.abs(np.abs(cloud.points) - 1.0)) < 1e-9


def test_base_julia_segment():
    cloud = sample_base_julia(Poly1([-2, 0, 1]), 2000, seed=0)
    assert np.max(np.abs(cloud.points.imag)) < 1e-6
    assert np.max(np.abs(cloud.points.real)) <= 2.0 + 1e-6


def test_base_julia_forward_invariance():
    p = Poly1([-1, 0, 1])
    cloud = sample_base_julia(p, 4000, seed=1)
    image = PointCloud(p(cloud.points))
    assert directed_hausdorff(image, cloud) < 0.05


def test_fiber_julia_product_matches_1d():
    f = make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1]))
    fiber = sample_fiber_julia(f, 1.0, 4000, seed=0)
    ref = sample_base_julia(Poly1([-1, 0, 1]), 4000, seed=1)
    assert hausdorff_distance(fiber, ref) < 0.05


def test_fiber_slice_unit_disk_area():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    sl = fiber_slice(f, 1.0, window=Rect(-1.5, 1.5, -1.5, 1.5),
                     resolution=(512, 512))
    area = sl.membership.sum() * sl.cell_width() ** 2
    assert abs(area - np.pi) < 0.02 * np.pi


def test_fiber_slice_stable_under_doubled_max_iter():
    f = make_Fa(-1)
    params = derive_escape_radius(f).with_max_iter(200)
    a = fiber_slice(f, 1.0, window=Rect(-2, 2, -2, 2), resolution=(128, 128),
                    params=params)
    b = fiber_slice(f, 1.0, window=Rect(-2, 2, -2, 2), resolution=(128, 128),
                    params=params.with_max_iter(400))
    flips = np.count_nonzero(a.membership != b.membership)
    assert flips / a.membership.size < 0.001


def test_disconnected_fiber_has_no_interior():
    # all fiber critical orbits escape: bounded cells have escaped neighbors
    f = make_Fa(2)
    sl = fiber_slice(f, 1.0, resolution=(256, 256))
    m = sl.membership
    interior = (m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1]
                & m[1:-1, :-2] & m[1:-1, 2:])
    assert interior.sum() == 0


def test_j2_inverse_forward_invariant():
    # the set is a surface in R^4, so a finite sample is sparse; require
    # that the forward image sits no farther from an independent dense
    # sample than the cloud itself does (invariance up to sampling gaps)
    f = make_Fa(-1)
    j2 = sample_J2_inverse(f, 2000, seed=0)
    ref = sample_J2_inverse(f, 40000, seed=1)
    imz = f.p(j2.points[:, 0])
    imw = f.q(j2.points[:, 0], j2.points[:, 1])
    image = PointCloud(np.column_stack([imz, imw]))
    self_gap = directed_hausdorff(j2, ref)
    assert directed_hausdorff(image, ref) < self_gap + 0.05


def test_j2_curve_structure_for_fa():
    # each (z, w) lies on a rotated copy of the 1D basilica set:
    # w / sigma is near the 1D cloud for a square root sigma of z
    f = make_Fa(-1)
    j2 = sample_J2_inverse(f, 2000, seed=0)
    ref = sample_base_julia(Poly1([-1, 0, 1]), 20000, seed=1).points
    sig = np.sqrt(j2.points[:, 0])
    d = np.minimum(
        np.min(np.abs((j2.points[:, 1] / sig)[:, None] - ref[None, :]),
               axis=1),
        np.min(np.abs((-j2.points[:, 1] / sig)[:, None] - ref[None, :]),
               axis=1),
    )
    assert np.max(d) < 0.05


def test_hausdorff_basic_properties():
    rng = np.random.default_rng(2)
    a = PointCloud(rng.standard_normal(100) + 1j * rng.standard_normal(100))
    assert hausdorff_distance(a, a) == 0.0
    t = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
    c1 = PointCloud(np.exp(1j * t))
    c2 = PointCloud(1.1 * np.exp(1j * t))
    d = hausdorff_distance(c1, c2)
    assert abs(d - 0.1) < 0.01
    b = PointCloud(rng.standard_normal(80) + 1j * rng.standard_normal(80))
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
    # repeated points change neither side of the distance
    rep = PointCloud(np.concatenate([a.points, a.points[:40], a.points[:5]]))
    assert hausdorff_distance(rep, a) == 0.0
    assert hausdorff_distance(rep, b) == hausdorff_distance(a, b)
    assert hausdorff_distance(b, rep) == hausdorff_distance(b, a)


def test_hausdorff_triangle_inequality():
    rng = np.random.default_rng(3)
    clouds = [PointCloud(rng.standard_normal(60) + 1j * rng.standard_normal(60))
              for _ in range(3)]
    ab = hausdorff_distance(clouds[0], clouds[1])
    bc = hausdorff_distance(clouds[1], clouds[2])
    ac = hausdorff_distance(clouds[0], clouds[2])
    assert ac <= ab + bc + 1e-12


def test_hausdorff_preconditions():
    a = PointCloud(np.array([1.0 + 0j]))
    with pytest.raises(PreconditionError):
        hausdorff_distance(a, PointCloud(np.zeros(0, dtype=complex)))
    b2 = PointCloud(np.array([[1.0, 2.0]], dtype=complex))
    with pytest.raises(PreconditionError):
        hausdorff_distance(a, b2)


def test_sphere_embed_realizes_chordal():
    from skewdyn.engine import chordal_distance

    rng = np.random.default_rng(4)
    pts = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    emb = sphere_embed(pts)
    i, j = 3, 17
    d_emb = np.linalg.norm(emb[i] - emb[j])
    assert abs(d_emb - chordal_distance(pts[i], pts[j])) < 1e-12


def test_min_chordal_distance():
    a = PointCloud(np.array([0.0 + 0j, 1.0 + 0j]))
    b = PointCloud(np.array([0.5 + 0j]))
    got = min_chordal_distance(a, b)
    from skewdyn.engine import chordal_distance

    assert abs(got - chordal_distance(0.5, 1.0)) < 1e-12
    # repeated points on either side give the same distance
    rep = PointCloud(np.repeat(a.points, [3, 5]))
    assert min_chordal_distance(rep, b) == got
    assert min_chordal_distance(rep, PointCloud(np.repeat(b.points, 4))) == got


_grid_rows = st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=1, max_size=40),
    st.lists(st.tuples(*[st.integers(-6, 6).map(lambda v: v / 2)] * k),
             min_size=1, max_size=10)))


@settings(max_examples=200, deadline=None)
@given(_grid_rows)
def test_cloud_index_matches_full_tree(data):
    # a small integer grid makes repeated rows and distance ties common
    rows, q = (np.array(x, dtype=float) for x in data)
    index, full = CloudIndex(rows), cKDTree(rows)
    nn = index.nn_distances()
    assert np.array_equal(nn, full.query(rows, k=2)[0][:, 1])
    assert index.spacing == float(np.median(nn))
    d, i = index.query(q)
    fd, fi = full.query(q)
    assert np.array_equal(d, fd)
    assert np.allclose(np.linalg.norm(rows[i] - q, axis=1), d)
    if len(np.unique(rows, axis=0)) == len(rows):
        assert np.array_equal(i, fi)
    assert np.array_equal(CloudIndex(rows[:1]).nn_distances(), [np.inf])


def _void_key_distinct_rows(rows):
    """`_distinct_rows` by `np.unique` on each row's bytes: the reference."""
    rows = np.ascontiguousarray(rows, dtype=float)
    key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(key.ravel(), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


# 0.0, -0.0, 1.0, -1.0, 0.5, inf, -inf and NaNs with different payloads
_SPECIAL_BITS = np.array([
    0x0000000000000000, 0x8000000000000000, 0x3FF0000000000000,
    0xBFF0000000000000, 0x3FE0000000000000, 0x7FF0000000000000,
    0xFFF0000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
    0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)


def _hash_twins(u):
    """Rows that differ from the uint64 rows u (at least 2 columns) but
    have the same `_row_hash`: column 0's term falls by the column-1
    multiplier as column 1's term rises by one."""
    def unshift(y):                   # the inverse of x ^ (x >> 31)
        return y ^ (y >> np.uint64(31)) ^ (y >> np.uint64(62))

    f = u[:, :2] ^ (u[:, :2] >> np.uint64(31))
    twins = u.copy()
    twins[:, 0] = unshift(f[:, 0] - np.uint64(1000003))
    twins[:, 1] = unshift(f[:, 1] + np.uint64(1))
    return twins


def _check_distinct_rows(u):
    rows = u.view(float)
    keep, inverse = _distinct_rows(rows)
    want_keep, want_inverse = _void_key_distinct_rows(rows)
    assert np.array_equal(keep, want_keep)
    assert np.array_equal(inverse, want_inverse)
    assert np.array_equal(rows[keep][inverse].view(np.uint64), u)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 60),
       st.integers(0, 3))
def test_distinct_rows_equal_void_key_unique(seed, k, n, mode):
    # mode 0: rows drawn from a few special values (many repeats); 1: all
    # rows equal; 2: all rows distinct; 3: mode 0 plus hash twins
    rng = np.random.default_rng(seed)
    if mode == 2:
        u = rng.integers(0, 2 ** 64, (n, k), dtype=np.uint64)
        u[:, 0] = np.arange(n, dtype=np.uint64)
    else:
        pool = _SPECIAL_BITS[:rng.integers(1, len(_SPECIAL_BITS) + 1)]
        u = pool[rng.integers(0, len(pool), (1 if mode == 1 else n, k))]
        u = np.repeat(u, n, axis=0) if mode == 1 else u
    if mode == 3 and k >= 2:
        twins = _hash_twins(u[:rng.integers(1, n + 1)])
        assert np.array_equal(_row_hash(twins), _row_hash(u[:len(twins)]))
        u = rng.permutation(np.concatenate([u, twins]))
    event(f"mode {mode}")
    _check_distinct_rows(u)
    if k in (2, 4):                   # the rows of 1-D and 2-D clouds
        pts = u.view(complex)
        _check_distinct_rows(_as_real(pts.ravel() if k == 2 else pts)
                             .view(np.uint64))


def test_cloud_csv_format_and_determinism():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    c = PointCloud(pts)
    s1 = cloud_to_csv(c)
    s2 = cloud_to_csv(PointCloud(pts.copy()))
    assert s1 == s2
    assert s1.splitlines()[0] == "re_z,im_z"
    c2 = PointCloud(np.column_stack([pts, pts[::-1]]))
    lines = cloud_to_csv(c2).splitlines()
    assert lines[0] == "re_z,im_z,re_w,im_w"
    # every field is a plain float literal that round-trips bit-exactly
    for csv_lines, expect in ((s1.splitlines(), c.points[:, None]),
                              (lines, c2.points)):
        vals = np.array([[float(x) for x in ln.split(",")]
                         for ln in csv_lines[1:]])
        back = vals[:, 0::2] + 1j * vals[:, 1::2]
        assert back.tobytes() == expect.tobytes()


def _random_cloud(rng, n, dim, grid):
    """n random points in C^dim, on a quarter grid (repeated rows and
    distance ties) or continuous."""
    x = rng.standard_normal((n, 2 * dim))
    if grid:
        x = np.round(4 * x) / 4
    pts = x.view(complex)
    return pts.ravel() if dim == 1 else pts


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]),
       st.sampled_from([1, 2, 15, 16, 17, 40, 400]), st.integers(1, 400),
       st.booleans(), st.sampled_from([0.0, 3.0, 1e3, 1e6]),
       st.integers(0, 3))
def test_directed_hausdorff_equals_full_query(seed, dim, n_a, n_b, grid,
                                              offset, mode):
    # mode 0: independent clouds; 1: a == b; 2: a is b with repeated
    # rows; 3: every row of a repeated
    rng = np.random.default_rng(seed)
    b = _random_cloud(rng, n_b, dim, grid)
    if mode == 1:
        a = b.copy()
    elif mode == 2:
        a = np.concatenate([b, b[rng.integers(0, n_b, n_a)]])
    else:
        a = _random_cloud(rng, n_a, dim, grid) + offset
        if mode == 3:
            a = np.repeat(a, 3, axis=0)
    event(f"mode {mode}, {len(a)} query rows")
    rows_a = a[:, None] if dim == 1 else a
    rows_b = b[:, None] if dim == 1 else b
    want = float(cKDTree(rows_b.view(float)).query(rows_a.view(float))[0]
                 .max())
    got = directed_hausdorff(PointCloud(a), PointCloud(b))
    assert got.hex() == want.hex()
    assert directed_hausdorff(PointCloud(a), PointCloud(b),
                              workers=2).hex() == want.hex()


def _csv_reference(points: np.ndarray) -> str:
    """cloud_to_csv written row by row with repr."""
    if points.ndim == 1:
        lines = ["re_z,im_z"] + [f"{p.real!r},{p.imag!r}"
                                 for p in points.tolist()]
    else:
        lines = ["re_z,im_z,re_w,im_w"] + [
            f"{z.real!r},{z.imag!r},{w.real!r},{w.imag!r}"
            for z, w in points.tolist()]
    return "\n".join(lines) + "\n"


_CSV_SPECIAL = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16,
                         9999999999999998.0, 1e-05, 0.0001, 0.0])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 7, 4095, 4096, 4097, 9000])
def test_cloud_csv_bit_equal_to_repr_rows(dim, n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(2 * dim * n) * 10.0 ** rng.integers(-8, 18,
                                                               2 * dim * n)
    # the special values land in every field position and on block edges
    special = rng.integers(0, 2, x.size).astype(bool)
    x[special] = np.resize(_CSV_SPECIAL, special.sum())
    pts = x.view(complex)
    pts = pts if dim == 1 else pts.reshape(n, 2)
    got = cloud_to_csv(PointCloud(pts))
    assert got == _csv_reference(pts)
    assert got.count("\n") == n + 1


def _positional(u: np.ndarray) -> np.ndarray:
    """Floats with the sign and mantissa bits of u, and binary exponents in
    [-13, 52]: 2^-13 > 1e-4 and 2^53 < 1e16, so repr prints every one of
    them positionally."""
    e = (u >> np.uint64(52)) % np.uint64(66) + np.uint64(1023 - 13)
    keep = np.uint64(0x800F_FFFF_FFFF_FFFF)
    return ((u & keep) | e << np.uint64(52)).view(float)


@st.composite
def _bit_clouds(draw):
    """1-D and 2-D clouds from raw uint64 bit patterns; a drawn share of the
    rows keep every field positional, so runs of both kinds of row occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 5000)))
    raw_share = draw(st.sampled_from([0.0, 0.002, 0.1, 0.5, 1.0]))
    u = rng.integers(0, 2 ** 64, (n, 2 * dim), dtype=np.uint64)
    raw = rng.random(n) < raw_share
    x = np.where(raw[:, None], u.view(float), _positional(u))
    event(f"raw share {raw_share}")
    pts = x.view(complex)
    return pts.ravel() if dim == 1 else pts


# the doubles at the edges of repr's positional range, zeros, a NaN with its
# sign bit and a payload, and infinities
_CSV_EDGES = np.array([np.nextafter(1e-4, 0), -np.nextafter(1e-4, 0), 1e-4,
                       -1e-4, np.nextafter(1e16, 0), 1e16, -1e16, 5e-324,
                       -0.0, 0.0, np.uint64(0xFFF8_0000_0000_1234).view(float),
                       np.inf, -np.inf])


def _complex(*cols) -> np.ndarray:
    """Points whose real and imaginary parts are the given columns, with
    their bits (no arithmetic that could touch a NaN or an infinity)."""
    pts = np.column_stack(cols).view(complex)
    return pts.ravel() if len(cols) == 2 else pts


def _one_odd_row(n: int, at: int) -> np.ndarray:
    """A 2-D cloud of n positional rows, but row `at` holds 1e-05."""
    pts = np.full((n, 2), 1.5 - 0.25j)
    pts[at, 1] = 1e-05
    return pts


@settings(max_examples=60, deadline=None)
@given(_bit_clouds())
@example(_complex(_CSV_EDGES, np.full(len(_CSV_EDGES), 0.5)))
@example(_complex(_CSV_EDGES, np.full(len(_CSV_EDGES), 7.0),
                  -_CSV_EDGES[::-1], _CSV_EDGES))
@example(_one_odd_row(5, 0))                    # a run's start
@example(_one_odd_row(5, 2))                    # its middle
@example(_one_odd_row(5, 4))                    # its end
@example(np.full(6, 1e-05 + 1e16j))             # every row odd
def test_csv_rows_equal_repr_rows(pts):
    assert cloud_to_csv(PointCloud(pts)) == _csv_reference(pts)


def test_csv_rows_equal_repr_on_a_million_positional_values():
    rng = np.random.default_rng(21)
    rows = _positional(rng.integers(0, 2 ** 64, (250_000, 4),
                                    dtype=np.uint64))
    want = ("%r,%r,%r,%r\n" * len(rows)) % tuple(rows.ravel().tolist())
    assert _csv_rows("", rows) == want


def test_sampler_determinism():
    p = Poly1([-1, 0, 1])
    a = sample_base_julia(p, 500, seed=9).points
    b = sample_base_julia(p, 500, seed=9).points
    assert np.array_equal(a, b)
    f = make_Fa(-1)
    x = sample_fiber_julia(f, 1.0, 300, seed=9).points
    y = sample_fiber_julia(f, 1.0, 300, seed=9).points
    assert np.array_equal(x, y)


def test_pgm_ppm_formats():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    sl = fiber_slice(f, 1.0, resolution=(64, 48))
    pgm = slice_to_pgm(sl)
    assert pgm.startswith(b"P5\n64 48\n255\n")
    assert len(pgm) == len(b"P5\n64 48\n255\n") + 64 * 48
    ppm = slice_to_ppm(sl)
    assert ppm.startswith(b"P6\n64 48\n255\n")
    assert len(ppm) == len(b"P6\n64 48\n255\n") + 3 * 64 * 48
    # bounded cells are black in both
    body = np.frombuffer(pgm[len(b"P5\n64 48\n255\n"):], dtype=np.uint8)
    assert np.all(body.reshape(48, 64)[sl.membership] == 0)


def _full_grid_escape(maps, window, nx, ny, radius):
    """Reference escape-time grid: the whole grid is indexed at every step
    and a cell escapes on a non-finite value or |w| > radius."""
    r = window
    xs = r.re_min + (np.arange(nx) + 0.5) * (r.re_max - r.re_min) / nx
    ys = r.im_min + (np.arange(ny) + 0.5) * (r.im_max - r.im_min) / ny
    X, Y = np.meshgrid(xs, ys)
    w = (X + 1j * Y).ravel()
    esc = np.zeros(w.shape, dtype=int)
    alive = np.ones(w.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, g in enumerate(maps, 1):
            wn = g(w[alive])
            dead = ~np.isfinite(wn.real) | ~np.isfinite(wn.imag) | (
                np.abs(wn) > radius
            )
            w[alive] = np.where(dead, np.inf, wn)
            idx = np.where(alive)[0]
            esc[idx[dead]] = n
            alive[idx[dead]] = False
            if not alive.any():
                break
    return esc.reshape(ny, nx)


def _table(maps):
    """The coefficient table `_escape_grid` steps on: row n holds the n-th
    map's coefficients, highest power first."""
    return np.array([g.coeffs[::-1] for g in maps])


def _assert_same_grid(maps, window, nx, ny, radius):
    """`_escape_grid` against the reference: bit-equal grids."""
    got = _escape_grid(_table(maps), window, nx, ny, radius)
    want = _full_grid_escape(maps, window, nx, ny, radius)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return got


_GOLDEN = (5 ** 0.5 - 1) / 2
_grid_coefficient = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                       allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.lists(_grid_coefficient, min_size=4, max_size=4),
       st.one_of(_grid_coefficient.filter(lambda c: abs(c) > 0.1),
                 st.floats(0.1, 2.0).map(lambda y: complex(0.0, y))),
       st.floats(0.0, 1.0), st.sampled_from([1e-2, 1.0, 3.0, 1e100, 1e200]),
       _grid_coefficient, st.floats(2.0, 1e300), st.integers(1, 60),
       st.integers(1, 24), st.integers(1, 24))
def test_escape_grid_bit_equal_to_full_grid(d, lower, top, amp, half, centre,
                                            radius, steps, nx, ny):
    # the fiber maps vary along the orbit of an irrational rotation of the
    # base, which never repeats; windows of half-side 1e100 and 1e200
    # overflow to inf and NaN within a step or two
    maps = []
    for k in range(steps):
        c = np.array(lower[:d] + [top], dtype=complex)
        c[0] += amp * cmath.exp(2j * cmath.pi * _GOLDEN * k)
        maps.append(Poly1(c))
    window = Rect.square(centre * min(half, 1.0), half)
    _assert_same_grid(maps, window, nx, ny, radius)


def test_escape_grid_stops_when_every_cell_escapes():
    maps = [Poly1([0.0, 0.0, 1.0])] * 50
    esc = _assert_same_grid(maps, Rect.square(1e6, 1e5), 16, 8, 10.0)
    assert np.all(esc == 1)


def test_escape_grid_without_escapes():
    maps = [Poly1([0.1j, 0.0, 1.0]), Poly1([-0.1, 0.0, 1.0])] * 20
    esc = _assert_same_grid(maps, Rect.square(0.0, 0.4), 16, 8, 2.0)
    assert not esc.any()


def test_cloud_index_query_workers_bit_equal():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((5000, 2))
    rows[::7] = rows[1::7]  # repeated rows and distance ties
    q = np.round(rng.standard_normal((20000, 2)), 1)
    index = CloudIndex(rows)
    d1, i1 = index.query(q)
    d2, i2 = index.query(q, workers=2)
    assert np.array_equal(d1.view(np.uint64), d2.view(np.uint64))
    assert np.array_equal(i1, i2)
    a = PointCloud(q.view(complex).ravel())
    b = PointCloud(rows.view(complex).ravel())
    assert hausdorff_distance(a, b) == hausdorff_distance(a, b, workers=2)


@pytest.mark.parametrize("dim, n_a, n_b", [(1, 3000, 2000), (2, 500, 17),
                                            (1, 1, 1)])
def test_hausdorff_finds_each_clouds_distinct_rows_once(monkeypatch, dim,
                                                        n_a, n_b):
    rng = np.random.default_rng(5)
    a, b = (_random_cloud(rng, n, dim, True) for n in (n_a, n_b))
    a = np.concatenate([a, a[: n_a // 3]])  # repeated rows
    want = max(directed_hausdorff(PointCloud(a), PointCloud(b)),
               directed_hausdorff(PointCloud(b), PointCloud(a)))
    calls = []
    distinct = skewdyn.sets._distinct_rows

    def counted(rows):
        calls.append(len(rows))
        return distinct(rows)

    monkeypatch.setattr(skewdyn.sets, "_distinct_rows", counted)
    for workers in (1, 2):
        calls.clear()
        got = hausdorff_distance(PointCloud(a), PointCloud(b), workers)
        assert got.hex() == want.hex()
        assert calls == [len(a), len(b)]
    # the directed distances read an index as its cloud
    ia, ib = CloudIndex(_as_real(a)), CloudIndex(_as_real(b))
    assert len(ia) == len(a)
    assert (directed_hausdorff(ia, PointCloud(b)).hex()
            == directed_hausdorff(PointCloud(a), ib).hex()
            == directed_hausdorff(PointCloud(a), PointCloud(b)).hex())


def _cardioid(mu):
    """The c for which w^2 + c has a fixed point of multiplier mu."""
    return mu / 2 - mu * mu / 4


def _cubic_cardioid(mu):
    """The c for which w^3 + c has a fixed point of multiplier mu."""
    v = cmath.sqrt(mu / 3)
    return v - v ** 3


def _unit_disk(r, t):
    return r * cmath.exp(2j * cmath.pi * t)


def _monic(d, c):
    coeffs = np.zeros(d + 1, dtype=complex)
    coeffs[0], coeffs[d] = c, 1.0
    return Poly1(coeffs)


def _c_values(d):
    """c from a hyperbolic component of w^d + c (the main cardioid, and for
    d = 2 the period-2 bulb), or a generic c."""
    in_disk = st.builds(_unit_disk, st.floats(0, 0.99), st.floats(0, 1))
    hyperbolic = [in_disk.map(_cardioid if d == 2 else _cubic_cardioid)]
    if d == 2:
        hyperbolic.append(in_disk.map(lambda mu: -1 + mu / 4))
    return st.one_of(*hyperbolic, _grid_coefficient.map(lambda c: 0.75 * c))


# (period maps, pre-periodic prefix maps), all of one degree; periods up to
# TRAP_MAX_PERIOD = 10, whose period maps reach degree 2^10 at d = 2
_periodic_maps = st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(
    st.integers(1, 10).flatmap(lambda k: st.lists(
        _c_values(d).map(lambda c: _monic(d, c)), min_size=k, max_size=k)),
    st.lists(_grid_coefficient.map(lambda c: _monic(d, c)), max_size=3)))


@settings(max_examples=150, deadline=None)
@given(_periodic_maps, st.integers(1, 150), st.floats(0.2, 2.5),
       st.sampled_from([2.0, 3.0, 10.0]), st.integers(1, 20),
       st.integers(1, 20))
def test_trapped_grid_bit_equal_to_full_grid(sequence, steps, half, radius,
                                             nx, ny):
    # the trapped grid stops once every cell has escaped or is trapped, the
    # reference runs all the steps
    period, prefix = sequence
    maps = (prefix + period * steps)[:steps]
    traps = _grid_traps(period, len(prefix), radius)
    event(f"traps: {traps is not None}, period above 6: {len(period) > 6}")
    window = Rect.square(0.0, half)
    got = _escape_grid(_table(maps), window, nx, ny, radius, traps)
    want = _full_grid_escape(maps, window, nx, ny, radius)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(_periodic_maps, st.integers(1, 80), st.sampled_from([2.0, 3.0, 10.0]),
       st.integers(1, 20), st.integers(1, 20), st.integers(1, 40))
def test_escape_grid_in_blocks_bit_equal(sequence, steps, radius, nx, ny,
                                         block):
    # blocks of any size, the last one down to a single cell, give the grid
    # of one block
    period, prefix = sequence
    maps = (prefix + period * steps)[:steps]
    traps = _grid_traps(period, len(prefix), radius)
    window = Rect.square(0.0, 1.5)
    with mock.patch.object(skewdyn.sets, "GRID_BLOCK", block):
        got = _escape_grid(_table(maps), window, nx, ny, radius, traps)
    one = _escape_grid(_table(maps), window, nx, ny, radius, traps)
    want = _full_grid_escape(maps, window, nx, ny, radius)
    assert np.array_equal(got.view(np.uint64), one.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


_TRAP_CASES = [
    # (period maps, radius, certified radii of the first cycle or None)
    ([Poly1([0, 0, 1])], 2.0, [0.5]),
    ([Poly1([0, 0, 1])], 0.4, [0.25]),         # the disks lie inside radius
    ([Poly1([-0.9, 0, 1])], 2.0, None),
    ([Poly1([-0.2, 0, 1]), Poly1([0.1j, 0, 1])], 2.0, None),
    ([_monic(3, _cubic_cardioid(0.5j))] * 3, 2.0, None),
    ([Poly1([-1.75487766624669276, 0, 1])], 5.5, None),    # airplane
    ([_monic(2, -0.1), _monic(2, 0.2j), _monic(2, -0.3)], 3.0, None),
    ([_monic(2, -1), _monic(2, -0.1), _monic(2, -1)], 3.0, None),
]


def _assert_sound(chains, period, radius):
    """Every disk lies inside the radius, and 512 of its boundary and 512
    of its interior points, stepped once by the map it belongs to, land
    strictly inside the next disk of its chain."""
    rng = np.random.default_rng(0)
    theta = np.exp(2j * np.pi * np.arange(512) / 512)
    for centers, rs in chains:
        assert len(centers) % len(period) == 0
        assert np.all(np.abs(centers) + rs < radius)
        for t, (c, r) in enumerate(zip(centers, rs)):
            inside = np.sqrt(rng.random(512)) * np.exp(
                2j * np.pi * rng.random(512))
            pts = np.concatenate([c + r * theta, c + r * inside])
            img = period[t % len(period)](pts)
            nxt = (t + 1) % len(centers)
            assert np.all(np.abs(img - centers[nxt]) < rs[nxt])


@pytest.mark.parametrize("period, radius, radii", _TRAP_CASES)
def test_trap_disks_are_sound(period, radius, radii):
    chains = _trap_chains(period, radius)
    assert chains
    if radii is not None:
        assert np.array_equal(chains[0][1], radii)
    _assert_sound(chains, period, radius)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0.0, -0.9, -0.2 + 0.3j]), _grid_coefficient)
def test_disk_chain_through_points_off_the_cycle_is_sound(c, offset):
    # centres moved off the cycle: a chain that still closes must be sound
    g = Poly1([c, 0, 1])
    (centers, _), = _trap_chains([g], 4.0)
    moved = list(centers + 0.2 * offset)
    radii = _close_disk_chain(moved, [g], 4.0)
    event(f"closes: {radii is not None}")
    if radii is not None:
        _assert_sound([(np.array(moved), np.array(radii))], [g], 4.0)


def test_trapped_grid_checks_the_disks_of_the_current_phase():
    # the superattracting 2-cycle 0 -> 1.5 -> 0 of w^2 + 1.5, w^2 - 2.25:
    # a cell near 1.5 before w^2 + 1.5 escapes, one near 0 does not
    period = [Poly1([1.5, 0, 1]), Poly1([-2.25, 0, 1])]
    window = Rect(-0.5, 2.0, -0.5, 0.5)
    for prefix in ([], period[1:]):
        maps = (prefix + period * 40)[:60]
        traps = _grid_traps(period, len(prefix), 10.0)
        assert traps is not None
        got = _escape_grid(_table(maps), window, 40, 16, 10.0, traps)
        want = _full_grid_escape(maps, window, 40, 16, 10.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert (want == 0).any() and (want > 0).any()


def test_w2_minus_09_disks():
    # the 2-cycle of w^2 - 0.9 gets disks of radii 0.125 and about 0.237
    (centers, rs), = _trap_chains([Poly1([-0.9, 0, 1])], 2.0)
    assert sorted(np.round(rs, 3)) == [0.125, 0.237]
    assert np.allclose(sorted(centers), [(-1 - 0.6 ** 0.5) / 2,
                                         (-1 + 0.6 ** 0.5) / 2])


def test_no_trap_disks_without_an_attracting_cycle():
    # w^2 + i: the critical orbit is pre-periodic to a repelling cycle
    g = Poly1([1j, 0, 1])
    assert _trap_chains([g], 4.0) == []
    # z^2 - 20: the critical orbit escapes
    f = make_fig3()
    params = derive_escape_radius(f)
    assert _grid_traps([f.p], 0, params.base_radius) is None
    # airplane(3) over beta: the float base orbit drifts and never repeats
    f = make_airplane_skew(3)
    params = derive_escape_radius(f)
    orbit = f.p.orbit(airplane_beta(f), params.max_iter)
    assert _fiber_traps(f, orbit, params.radius) is None


def _skew(p, q_rows):
    return SkewProduct(p=Poly1(p), q=Poly2(q_rows))


@pytest.mark.parametrize("f, z, start, period", [
    # the exact base 2-cycle 0 <-> -1 of z^2 - 1; q_0 = w^2, q_{-1} = w^2 - 0.2
    (_skew([-1, 0, 1], [[0, 0, 1], [0.2, 0, 0]]), 0.0, 0, 2),
    (_skew([-1, 0, 1], [[0, 0, 1], [0.2, 0, 0]]), -1.0, 0, 2),
    # the pre-periodic point -1 -> 1 -> 1 of z^2; q_{-1} = w^2 - 0.2, q_1 = w^2
    (_skew([0, 0, 1], [[-0.1, 0, 1], [0.1, 0, 0]]), -1.0, 1, 1),
])
def test_fiber_slice_over_exact_base_cycle(f, z, start, period):
    params = derive_escape_radius(f)
    orbit = f.p.orbit(z, params.max_iter)
    traps = _fiber_traps(f, orbit, params.radius)
    assert traps[0] == start and len(traps[1]) == period
    window = Rect(-2, 2, -2, 2)
    sl = fiber_slice(f, z, window=window, resolution=(64, 48), params=params)
    want = _full_grid_escape([fiber_poly(f, zc) for zc in orbit], window,
                             64, 48, params.radius)
    assert np.array_equal(sl.escape_iters.view(np.uint64),
                          want.view(np.uint64))
    assert 0 < sl.membership.sum() < sl.membership.size


@pytest.mark.parametrize("f, z", [
    (make_fig3(), 5.0),                 # the fixed point 5 of z^2 - 20
    (make_fig3(), 6.0),                 # an orbit that overflows to inf
    (make_fig3(), 1e200),               # inf after one step
    (make_Fa(-1), -0.0),
    (make_Fa(1j), complex(0.3, -0.0)),
    (make_airplane_skew(3), 1.5 - 0.2j),
])
def test_fiber_slice_steps_on_the_fiber_maps(f, z):
    # the coefficient table fiber_slice builds in one call gives the grid
    # of the fiber maps built one base point at a time
    params = derive_escape_radius(f).with_max_iter(60)
    window = Rect(-2, 2, -1.5, 1.5)
    sl = fiber_slice(f, z, window=window, resolution=(32, 24), params=params)
    with np.errstate(over="ignore", invalid="ignore"):
        maps = [fiber_poly(f, zc) for zc in f.p.orbit(z, params.max_iter)]
    want = _full_grid_escape(maps, window, 32, 24, params.radius)
    assert np.array_equal(sl.escape_iters.view(np.uint64),
                          want.view(np.uint64))
