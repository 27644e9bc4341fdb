import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from skewdyn.engine import Rect, derive_escape_radius
from skewdyn.errors import PreconditionError
from skewdyn.families import make_Fa, make_product
from skewdyn.poly import Poly1
from skewdyn.sets import (
    CloudIndex,
    PointCloud,
    assemble_J2,
    boundary_extract,
    cloud_to_csv,
    continuity_scan,
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


def test_boundary_extract_unit_circle():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    sl = fiber_slice(f, 1.0, window=Rect(-1.5, 1.5, -1.5, 1.5),
                     resolution=(256, 256))
    cloud = boundary_extract(sl)
    assert len(cloud) > 0
    cw = sl.cell_width()
    assert np.max(np.abs(np.abs(cloud.points) - 1.0)) < 2 * cw


def test_boundary_extract_empty():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    sl = fiber_slice(f, 1.0, window=Rect(2.0, 3.0, 2.0, 3.0),
                     resolution=(32, 32))
    assert len(boundary_extract(sl)) == 0


def test_assemble_j2_product_torus():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    base = sample_base_julia(f.p, 50, seed=0)
    j2 = assemble_J2(f, base, per_fiber_budget=16)
    assert np.max(np.abs(np.abs(j2.points[:, 0]) - 1.0)) < 1e-9
    assert np.max(np.abs(np.abs(j2.points[:, 1]) - 1.0)) < 1e-6


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


def test_continuity_scan_product_constant_fibers():
    f = make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1]))
    base = sample_base_julia(f.p, 200, seed=0)
    rows = continuity_scan(f, 1.0, base, [0.5, 0.1], mode="K",
                           resolution=(64, 64))
    for row in rows:
        if not row["absent"]:
            # K_z constant in z for a product: deviations at cell scale
            assert row["max_hausdorff"] < 0.2
            assert abs(row["max_area_ratio"] - 1.0) < 0.1


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
