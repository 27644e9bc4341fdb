"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with its measured quantities before
asserting, so a full run reads as a ten-line scoreboard.  The determinism
criterion re-runs the pipelines of the fiber-rotation and regime
criteria with identical seeds and compares serialized outputs byte for
byte, so those pipelines are cached at module level.
"""

import numpy as np

from skewdyn.chain import chain_report, repelling_periodic_points
from skewdyn.contin import ParamPath, continue_orbit, separation_evidence
from skewdyn.critpost import (
    apt_cloud,
    certify_axiom_a,
    critical_locus,
    find_saddles,
    postcritical_cloud,
    verify_trapping,
)
from skewdyn.engine import derive_escape_radius
from skewdyn.errors import PreconditionError
from skewdyn.families import build_s1s2, make_Fa, make_airplane_skew, make_fig3
from skewdyn.poly import Poly1, fiber_poly
from skewdyn.sets import (
    PointCloud,
    cloud_to_csv,
    fiber_slice,
    hausdorff_distance,
    sample_J2_inverse,
    sample_base_julia,
    sample_fiber_julia,
)

_CACHE = {}


def _report(num, label, ok, detail):
    line = f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return ok


# ------------------------------------------------------------ criterion 1

def test_criterion_01_exact_identities():
    rng = np.random.default_rng(0)
    worst = 0.0
    for a in (-1.0, 0.1, 2.0, 1j):
        f = make_Fa(a)
        g = f.meta["g"]
        t = 2 * np.pi * rng.random(1000)
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        # invariant-curve relation
        z, w = np.exp(2j * t), x * np.exp(1j * t)
        z1, w1 = f.p(z), f.q(z, w)
        s = np.maximum(np.abs(w1), 1.0)
        worst = max(worst, float(np.max(np.abs(z1 - np.exp(4j * t)))),
                    float(np.max(np.abs(w1 - g(x) * np.exp(2j * t)) / s)))
        # semiconjugacy through (z, w) -> (z^2, z w)
        zz = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        ww = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        lz, lw = f.p(zz * zz), f.q(zz * zz, zz * ww)
        hz, hw = zz * zz, ww * ww + a
        s = np.maximum(np.abs(lw), 1.0)
        worst = max(worst,
                    float(np.max(np.abs(lz - hz * hz)
                                 / np.maximum(np.abs(lz), 1.0))),
                    float(np.max(np.abs(lw - hz * hw) / s)))
    ok = worst < 1e-10
    assert _report(1, "curve + semiconjugacy identities", ok,
                   f"worst deviation {worst:.2e}")


# ------------------------------------------------------------ criterion 2

def test_criterion_02_certification_matrix():
    results = {}
    for a in (0, 0.1, -1, 2, 1j):
        f = make_Fa(a)
        base = sample_base_julia(f.p, 2000, seed=7)
        j2 = sample_J2_inverse(f, 4000, seed=8)
        params = derive_escape_radius(f, base_points=base.points)
        rep = certify_axiom_a(f, base, j2, params=params)
        results[a] = rep
    ok = True
    margins = []
    for a in (0, 0.1, -1, 2):
        rep = results[a]
        ok &= rep.verdict.startswith("Certified")
        ok &= rep.clauses["ii"]["margin"] > 0.01
        margins.append(rep.clauses["ii"]["margin"])
    ok &= results[1j].verdict.startswith("Failed")
    detail = ("certified margins " + ", ".join(f"{m:.3f}" for m in margins)
              + f"; boundary case {results[1j].verdict}")
    assert _report(2, "certification matrix", ok, detail)


# ------------------------------------------------------------ criterion 3

def _theta_clouds():
    # 1e6 samples per cloud: at 1e4 the sampling gaps alone exceed the
    # 0.02 Hausdorff tolerance.  The determinism rerun compares the SHA-256
    # of each cloud's bytes: equal bytes mean equal CSVs (each field is the
    # repr of the float, a function of its bits), and the bytes also tell
    # NaN payloads apart; test_sets.py covers the CSV format
    import hashlib

    if "theta" not in _CACHE:
        f = make_Fa(-1)
        n = 1_000_000
        bas = sample_base_julia(Poly1([-1, 0, 1]), n, seed=3)
        rows = {}
        for th in (0.5, 1.0, 2.0):
            jz = sample_fiber_julia(f, np.exp(1j * th), n, depth=50, seed=1)
            ref = PointCloud(np.exp(1j * th / 2) * bas.points)
            h_a = hashlib.sha256(jz.points.tobytes()).hexdigest()
            h_r = hashlib.sha256(ref.points.tobytes()).hexdigest()
            rows[th] = (h_a, h_r, hausdorff_distance(jz, ref))
        _CACHE["theta"] = rows
    return _CACHE["theta"]


def test_criterion_03_fiber_rotation_structure():
    rows = _theta_clouds()
    dists = {th: d for th, (_, _, d) in rows.items()}
    ok = all(d < 0.02 for d in dists.values())
    detail = ", ".join(f"theta={th}: {d:.4f}" for th, d in dists.items())
    assert _report(3, "rotated-fiber Hausdorff match", ok, detail)


# ------------------------------------------------------------ criterion 4

def test_criterion_04_fixed_example_fibers():
    f = make_fig3()
    from skewdyn.engine import Rect

    sl = fiber_slice(f, 5.0, window=Rect(-1.5, 1.5, -1.5, 1.5),
                     resolution=(512, 512))
    cw = sl.cell_width()
    centers = sl.centers()
    inside = np.abs(centers) <= 1.0 - 2 * cw
    outside = np.abs(centers) >= 1.0 + 2 * cw
    disk_ok = bool(np.all(sl.membership[inside])
                   and not np.any(sl.membership[outside]))
    coeffs = fiber_poly(f, -4.0).coeffs
    coeff_err = float(np.max(np.abs(coeffs - np.array([-0.9, 0.0, 1.0]))))
    ok = disk_ok and coeff_err < 1e-12
    assert _report(4, "unit-disk fiber + exact fiber coefficients", ok,
                   f"disk match {disk_ok}, coefficient error {coeff_err:.1e}")


# ------------------------------------------------------------ criterion 5

def _chain_reports():
    if "chain" not in _CACHE:
        fams = {
            "allescape": make_Fa(2),
            "twisted": make_Fa(-1),
            "airplane3": make_airplane_skew(3),
            "twopiece": build_s1s2(Poly1([0, 0, 1]), Poly1([-1, 0, 1]),
                                   1, 1, seed=0)[0],
        }
        out = {}
        for key, f in fams.items():
            rep = chain_report(f)
            clouds = rep.pop("clouds")
            rep["csv"] = {k: cloud_to_csv(c) for k, c in clouds.items()
                          if hasattr(c, "points") and len(c)}
            out[key] = rep
        _CACHE["chain"] = out
    return _CACHE["chain"]


def test_criterion_05_regime_classification():
    reps = _chain_reports()
    got = {k: r["regime"] for k, r in reps.items()}
    want = {"allescape": "AllEmpty", "twisted": "AllEqualNonempty",
            "airplane3": "AptNeqAcc", "twopiece": "AccNeqA"}
    ok = got == want
    air = reps["airplane3"]
    if "acc_to_apt" in air and "apt_to_acc" in air:
        ok &= air["acc_to_apt"] > 10.0 * max(air["apt_to_acc"], 1e-12)
    ok &= reps["twopiece"].get("probe_distance", 0.0) > 0.1
    detail = ", ".join(f"{k}={v}" for k, v in got.items())
    assert _report(5, "four accumulation regimes", ok, detail)


# ------------------------------------------------------------ criterion 6

def test_criterion_06_saddles_equal_pointwise_tails():
    worst_fwd = worst_bwd = 0.0
    for a in (0, 0.1, -1):
        f = make_Fa(a)
        sads = find_saddles(f, 3)
        per = repelling_periodic_points(f.p, 3)
        base = PointCloud(per)
        params = derive_escape_radius(f, base_points=base.points)
        apt = apt_cloud(critical_locus(f, base, params=params)).points
        cyc = (np.concatenate([s.cycle for s in sads]) if sads
               else np.zeros((0, 2), dtype=complex))
        assert len(cyc) and len(apt)

        def dmax(A, B):
            return float(np.max(np.min(
                np.abs(A[:, None, 0] - B[None, :, 0])
                + np.abs(A[:, None, 1] - B[None, :, 1]), axis=1)))

        worst_fwd = max(worst_fwd, dmax(cyc, apt))
        worst_bwd = max(worst_bwd, dmax(apt, cyc))
    ok = worst_fwd < 1e-4 and worst_bwd < 1e-3
    assert _report(6, "saddle orbits match pointwise tails", ok,
                   f"saddle->tails {worst_fwd:.2e}, tails->saddle "
                   f"{worst_bwd:.2e}")


# ------------------------------------------------------------ criterion 7

def test_criterion_07_trapping_neighborhoods():
    f = make_Fa(-1)
    base = sample_base_julia(f.p, 1000, seed=7)
    params = derive_escape_radius(f, base_points=base.points)
    j2 = sample_J2_inverse(f, 4000, seed=8)
    sads = find_saddles(f, 3)
    sc = PointCloud(np.concatenate([s.cycle for s in sads]))
    rep_s = verify_trapping(f, sc, j2, r=0.1, m=50)
    pc = postcritical_cloud(f, base, n_iter=200, params=params)
    rep_p = verify_trapping(f, pc, j2, r=0.1, m=50)
    try:
        verify_trapping(f, j2, j2, r=0.1, m=50)
        rejected = False
    except PreconditionError:
        rejected = True
    ok = (rep_s["pass"] and rep_s["worst_ratio"] < 0.5
          and rep_p["pass"] and rep_p["worst_ratio"] < 0.5 and rejected)
    assert _report(7, "trapping neighborhoods", ok,
                   f"saddle m={rep_s['m']} ratio {rep_s['worst_ratio']:.3f}; "
                   f"postcritical m={rep_p['m']} ratio "
                   f"{rep_p['worst_ratio']:.3f}; overlap rejected {rejected}")


# ------------------------------------------------------------ criterion 8

def test_criterion_08_quantitative_checks(s1s2_basic):
    from skewdyn.lemmas import (
        check_box_avoid,
        check_box_bound,
        check_box_self_map,
        check_escape_ring,
        check_ray_surrogate,
        check_strip_escape,
        check_s1s2_bounds,
        check_s1s2_constants,
    )

    f, consts, s1, s2 = s1s2_basic
    reps = [
        check_box_bound(6),
        check_escape_ring(6),
        check_ray_surrogate(6),
        check_strip_escape(6),
        check_box_self_map(6, delta_prime=0.2),
        check_box_avoid(6),
        check_s1s2_constants(consts, s1, s2),
        check_s1s2_bounds(f, consts),
    ]
    ok = all(r["pass"] for r in reps)
    eps = next(r["epsilon"] for r in reps if r["id"] == "box-bound")
    N = next(r["N"] for r in reps if r["id"] == "ray-surrogate")
    detail = (f"{sum(r['pass'] for r in reps)}/8 checks, box epsilon "
              f"{eps:.4f}, uniform N {N}")
    assert _report(8, "quantitative geometry checks", ok, detail)


# ------------------------------------------------------------ criterion 9

def test_criterion_09_continuation_and_monodromy():
    f0 = make_Fa(-1)
    sads = find_saddles(f0, max_base_period=1)
    start = next(s for s in sads
                 if abs(s.base_point - 1.0) < 1e-9 and len(s.cycle) == 2)
    tr1 = continue_orbit(ParamPath(build=make_Fa,
                                   samples=np.linspace(-1, -0.95, 11)),
                         start)
    end = tr1.steps[-1]
    fresh = find_saddles(make_Fa(-0.95), max_base_period=1)
    end_err = min(abs(s.cycle[:, 0] - end.z).min()
                  + abs(s.cycle[:, 1] - end.w).min() for s in fresh)
    tr2 = continue_orbit(ParamPath(build=make_Fa,
                                   samples=np.linspace(-1, -2, 41)),
                         start)
    cross_err = (abs(tr2.lost_at - (-1.25))
                 if tr2.lost_at is not None else np.inf)
    from skewdyn.families import make_product

    sep = separation_evidence(f0, make_product(Poly1([0, 0, 1]),
                                               Poly1([-1, 0, 1])))
    ok = (tr1.outcome == "Completed" and end_err < 1e-6
          and tr2.outcome.startswith("Lost")
          and tr2.reason == "multiplier-crossing" and cross_err < 1e-3
          and sep["A"] == 2 and sep["B"] == 1)
    assert _report(9, "continuation + monodromy separation", ok,
                   f"endpoint error {end_err:.2e}, crossing error "
                   f"{cross_err:.2e}, degrees ({sep['A']}, {sep['B']})")


# ----------------------------------------------------------- criterion 10

def test_criterion_10_determinism():
    first_theta = _theta_clouds()
    first_chain = _chain_reports()
    _CACHE.clear()
    same = True
    rerun_theta = _theta_clouds()
    for th, (a_hash, r_hash, _) in first_theta.items():
        same &= rerun_theta[th][0] == a_hash
        same &= rerun_theta[th][1] == r_hash
    rerun_chain = _chain_reports()
    n_csv = 0
    for key, rep in first_chain.items():
        same &= rerun_chain[key]["regime"] == rep["regime"]
        for name, csv in rep["csv"].items():
            same &= rerun_chain[key]["csv"].get(name) == csv
            n_csv += 1
    assert _report(10, "byte-identical reruns", same,
                   f"{2 * len(first_theta)} fiber clouds compared by bytes + "
                   f"{n_csv} chain CSVs compared")
