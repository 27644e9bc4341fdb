"""Accumulation-chain pipeline and regime classification.

Builds the pointwise, per-component, and full-locus accumulation clouds of
the fiber critical set over the base Julia set and classifies the map into
one of four regimes:

  AllEmpty          every critical orbit escapes; all three sets are empty
  AllEqualNonempty  the three sets agree at sampling tolerance
  AptNeqAcc         component accumulation strictly exceeds pointwise tails
  AccNeqA           the full-locus probe reaches fibers the component cloud
                    misses
"""

from __future__ import annotations

import numpy as np

from .critpost import acc_cloud, acc_full_probe, apt_cloud, critical_locus
from .engine import derive_escape_radius
from .errors import NumericalError
from .poly import Poly1, SkewProduct, roots
from .sets import (
    CloudIndex,
    PointCloud,
    _as_real,
    directed_hausdorff,
    sample_J2_inverse,
    sample_base_julia,
)

__all__ = ["repelling_periodic_points", "chain_report"]


def repelling_periodic_points(p: Poly1, max_period: int = 3,
                              tol: float = 1e-2) -> np.ndarray:
    """Repelling periodic points of the base polynomial, periods 1..max."""
    pts = []
    for n in range(1, max_period + 1):
        q = p
        for _ in range(n - 1):
            q = p.compose(q)
        try:
            fix = roots(q - Poly1([0.0, 1.0]), tol=1e-8)
        except NumericalError:
            continue
        dp = p.deriv()
        for z in fix:
            if abs(np.prod(dp(np.array(p.orbit(z, n))))) > 1.0 + tol:
                pts.append(complex(z))
    if not pts:
        return np.zeros(0, dtype=complex)
    arr = np.array(pts, dtype=complex)
    # dedupe
    keep = []
    for z in arr:
        if not any(abs(z - k) < 1e-8 for k in keep):
            keep.append(z)
    return np.array(keep, dtype=complex)


def _cloud_diameter(cloud: PointCloud) -> float:
    if len(cloud) == 0:
        return 1.0
    span = np.ptp(_as_real(cloud.points), axis=0)
    return float(np.sqrt(np.sum(span**2)))


def chain_report(
    f: SkewProduct,
    n_base: int = 400,
    seed: int = 7,
    max_base_period: int = 3,
    n_iter: int = 300,
    tail_frac: float = 0.25,
    probe_depth: int = 40,
    j2_fibers: int = 150,
    per_fiber_budget: int = 24,
    ratio_threshold: float = 10.0,
    probe_threshold: float = 0.1,
) -> dict:
    """Compute the accumulation clouds and classify the chain regime.

    The base sample is augmented with the repelling periodic points of
    period <= max_base_period, so that fibers carrying bounded critical
    orbits over periodic bases are always represented.
    """
    base_rand = sample_base_julia(f.p, n_base, seed=seed)
    periodic = repelling_periodic_points(f.p, max_base_period)
    base = PointCloud(np.concatenate([base_rand.points, periodic]),
                      tag="Jp", seed=seed)
    params = derive_escape_radius(f, base_points=base.points)
    crit = critical_locus(f, base, params=params)
    apt = apt_cloud(crit)
    j2 = sample_J2_inverse(f, j2_fibers * per_fiber_budget, seed=seed + 1)
    w_bound = 1.5 * float(np.max(np.abs(j2.points[:, 1]))) if len(j2) else None
    acc = acc_cloud(f, crit, n_iter=n_iter, tail_frac=tail_frac,
                    params=params, w_bound=w_bound)
    report = {
        "apt_count": len(apt),
        "acc_count": len(acc),
        "seeds": {"base": seed, "j2": seed + 1},
        "clouds": {"apt": apt, "acc": acc, "j2": j2, "base": base},
    }
    if len(apt) == 0 and len(acc) == 0:
        report["regime"] = "AllEmpty"
        return report
    if len(apt) == 0 or len(acc) == 0:
        report["regime"] = "AptNeqAcc"
        report["acc_to_apt"] = float("inf") if len(apt) == 0 else 0.0
        return report
    d_acc_apt = directed_hausdorff(acc, apt)
    d_apt_acc = directed_hausdorff(apt, acc)
    scene = _cloud_diameter(j2)
    floor = max(d_apt_acc, 0.01 * scene)
    report["acc_to_apt"] = d_acc_apt
    report["apt_to_acc"] = d_apt_acc
    report["ratio_floor"] = floor
    if d_acc_apt > ratio_threshold * floor:
        report["regime"] = "AptNeqAcc"
        return report
    target = f.meta.get("probe_target")
    policy = f.meta.get("probe_policy", "1")
    if target is None:
        report["regime"] = "AllEqualNonempty"
        report["probe"] = None
        return report
    probe = acc_full_probe(f, target, policy, depth=probe_depth,
                           params=params)
    report["clouds"]["probe"] = probe
    if len(probe) == 0:
        report["regime"] = "AllEqualNonempty"
        report["probe_distance"] = 0.0
        return report
    band = max(0.05, 3.0 * CloudIndex(_as_real(base.points)).spacing)
    sel = np.abs(acc.points[:, 0] - complex(target)) <= band
    acc_fiber_w = acc.points[sel, 1]
    if len(acc_fiber_w) == 0:
        far = float("inf")
    else:
        far = float(np.max(
            np.min(np.abs(probe.points[:, 1][:, None]
                          - acc_fiber_w[None, :]), axis=1)))
    report["probe_distance"] = far
    report["probe_band"] = band
    report["regime"] = "AccNeqA" if far > probe_threshold else "AllEqualNonempty"
    return report
