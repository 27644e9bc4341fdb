import json

import numpy as np
import pytest

from conftest import validate_schema
from skewdyn.engine import (
    EscapeParams,
    Rect,
    chordal_distance,
    classify_orbit,
    contraction_probe,
    derive_escape_radius,
    orbit_record_to_json,
)
from skewdyn.errors import PreconditionError
from skewdyn.families import make_Fa, make_fig3, make_product
from skewdyn.poly import Poly1, fiber_poly
from skewdyn.sets import sample_base_julia, sample_fiber_julia


def test_radius_for_pure_square():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    params = derive_escape_radius(f)
    assert params.radius == 4.0


@pytest.mark.parametrize("maker", [lambda: make_Fa(-1), make_fig3])
def test_radius_defining_property(maker):
    f = maker()
    params = derive_escape_radius(f)
    rng = np.random.default_rng(0)
    zs = params.base_window.sample(100, seed=1)
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


def test_classify_exact_two_cycle():
    f = make_Fa(-1)
    params = derive_escape_radius(f)
    rec = classify_orbit(f, (1.0, 0.0), params)
    assert rec.status == "bounded"
    for z, w in rec.tail:
        assert abs(z - 1.0) < 1e-12
        assert min(abs(w), abs(w + 1.0)) < 1e-12


def test_classify_escape():
    f = make_product(Poly1([0, 0, 1]), Poly1([0, 0, 1]))
    params = derive_escape_radius(f)
    rec = classify_orbit(f, (1.0, 2.0), params)
    assert rec.status == "escaped"
    assert rec.escape_iter is not None and rec.escape_iter <= 10
    assert len(rec.tail) == 0


def test_classify_fig3_bounded_fiber_two_cycle():
    f = make_fig3()
    params = derive_escape_radius(f)
    rec = classify_orbit(f, (-4.0, 0.0), params)
    assert rec.status == "bounded"
    # 1D oracle: the attracting 2-cycle of w^2 - 0.9
    w = 0.0
    for _ in range(10000):
        w = w * w - 0.9
    cyc = {w, w * w - 0.9}
    assert abs(4 * np.prod([abs(c) for c in cyc])) < 1.0
    for _, wv in rec.tail:
        assert min(abs(wv - c) for c in cyc) < 1e-6


def test_status_independent_of_tail_len():
    f = make_Fa(-1)
    params = derive_escape_radius(f)
    for x in [(1.0, 0.0), (1.0, 2.0), (0.5 + 0.1j, 0.3)]:
        statuses = {classify_orbit(f, x, params, tail_len=t).status
                    for t in (8, 64, 128)}
        assert len(statuses) == 1


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


def test_contraction_probe_decays():
    f = make_Fa(-1)
    jz = sample_fiber_julia(f, 1.0, 500, seed=0).points
    diams = contraction_probe(f, 1.0, (0.1, 0.2), 12, jz_cloud=jz)
    assert diams[0] > 0
    # least-squares slope of the log-diameters is negative
    pos = diams[diams > 1e-300]
    m = np.arange(len(pos))
    slope = np.polyfit(m, np.log(pos), 1)[0]
    assert slope < 0


def test_contraction_probe_negative_slope_ensemble():
    # >= 20 probes; mean slope negative with a 95% normal bound
    f = make_Fa(-1)
    jz = sample_fiber_julia(f, 1.0, 500, seed=0).points
    rng = np.random.default_rng(6)
    slopes = []
    while len(slopes) < 20:
        a = 0.05 + 0.3 * rng.random()
        b = a + 0.05 + 0.1 * rng.random()
        try:
            diams = contraction_probe(f, 1.0, (a, b), 10, jz_cloud=jz)
        except PreconditionError:
            continue
        pos = diams[diams > 1e-300]
        slopes.append(np.polyfit(np.arange(len(pos)), np.log(pos), 1)[0])
    slopes = np.array(slopes)
    assert slopes.mean() + 1.96 * slopes.std(ddof=1) / np.sqrt(len(slopes)) < 0


def test_contraction_probe_degenerate_segment():
    f = make_Fa(-1)
    diams = contraction_probe(f, 1.0, (0.15, 0.15), 5)
    assert np.all(diams == 0.0)


def test_contraction_probe_rejects_segment_near_julia():
    f = make_Fa(-1)
    jz = sample_fiber_julia(f, 1.0, 500, seed=0).points
    target = complex(jz[0])
    with pytest.raises(PreconditionError):
        contraction_probe(f, 1.0, (target, target + 0.05), 5, jz_cloud=jz)


def test_orbit_record_json_schema():
    f = make_Fa(-1)
    params = derive_escape_radius(f)
    for x in [(1.0, 0.0), (1.0, 3.0)]:
        obj = json.loads(orbit_record_to_json(classify_orbit(f, x, params)))
        validate_schema(obj, "orbit")


def test_rect_helpers():
    r = Rect.square(1.0 + 1.0j, 0.5)
    assert r.re_min == 0.5 and r.im_max == 1.5
    assert abs(r.max_abs() - abs(1.5 + 1.5j)) < 1e-15
    s = r.sample(100, seed=0)
    assert np.all((s.real >= 0.5) & (s.real <= 1.5))


def test_escape_params_with_max_iter():
    p = EscapeParams(radius=4.0, base_radius=2.0)
    q = p.with_max_iter(50)
    assert q.max_iter == 50 and q.radius == 4.0
