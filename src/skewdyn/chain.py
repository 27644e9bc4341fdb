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

from .critpost import (MAX_BASE_PERIOD, acc_cloud, acc_full_probe, apt_cloud,
                       critical_locus)
from .engine import derive_escape_radius, repelling_cycles
from .poly import Poly1, SkewProduct
from .sets import (
    CloudIndex,
    PointCloud,
    _as_real,
    directed_hausdorff,
    sample_J2_inverse,
    sample_base_julia,
)

__all__ = ["repelling_periodic_points", "chain_report"]

RATIO_THRESHOLD = 10.0  # acc_to_apt above this times the floor: AptNeqAcc
PROBE_THRESHOLD = 0.1   # probe_distance above this: AccNeqA


def repelling_periodic_points(p: Poly1,
                              max_period: int = MAX_BASE_PERIOD) -> np.ndarray:
    """Repelling periodic points of the base polynomial, periods 1..max."""
    pts = [z for n in range(1, max_period + 1)
           for z, _, _ in repelling_cycles(p, n)]
    keep = []  # dedupe
    for z in pts:
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
    n_j2: int = 3600,
) -> dict:
    """Compute the accumulation clouds and classify the chain regime.

    The base sample is augmented with the repelling periodic points of
    period <= MAX_BASE_PERIOD, so that fibers carrying bounded critical
    orbits over periodic bases are always represented.  The critical
    orbits are stepped once, by `critical_locus`, whose tails the apt and
    acc clouds both read.  When the two agree, `acc_full_probe` pushes the
    critical points over a backward chain of p's most repelling fixed point
    t into the fiber of t (the probe cloud's z column), and the regime is
    AccNeqA when a probe point lies farther than PROBE_THRESHOLD from every
    acc point within the probe band of t.
    """
    base_rand = sample_base_julia(f.p, n_base, seed=seed)
    periodic = repelling_periodic_points(f.p)
    base = PointCloud(np.concatenate([base_rand.points, periodic]), seed=seed)
    params = derive_escape_radius(f, base_points=base.points)
    locus = critical_locus(f, base, params=params)
    apt = apt_cloud(locus)
    j2 = sample_J2_inverse(f, n_j2, seed=seed + 1)
    w_bound = 1.5 * float(np.max(np.abs(j2.points[:, 1]))) if len(j2) else None
    acc = acc_cloud(locus, w_bound=w_bound)
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
    acc_index = CloudIndex(_as_real(acc.points))
    apt_index = CloudIndex(_as_real(apt.points))
    d_acc_apt = directed_hausdorff(acc_index, apt_index)
    d_apt_acc = directed_hausdorff(apt_index, acc_index)
    scene = _cloud_diameter(j2)
    floor = max(d_apt_acc, 0.01 * scene)
    report["acc_to_apt"] = d_acc_apt
    report["apt_to_acc"] = d_apt_acc
    report["ratio_floor"] = floor
    if d_acc_apt > RATIO_THRESHOLD * floor:
        report["regime"] = "AptNeqAcc"
        return report
    probe = acc_full_probe(f, params=params)
    report["clouds"]["probe"] = probe
    if len(probe) == 0:
        report["regime"] = "AllEqualNonempty"
        report["probe_distance"] = 0.0
        return report
    band = max(0.05, 3.0 * locus.spacing)
    sel = np.abs(acc.points[:, 0] - probe.points[0, 0]) <= band
    acc_fiber_w = acc.points[sel, 1]
    if len(acc_fiber_w) == 0:
        far = float("inf")
    else:
        far = float(np.max(
            np.min(np.abs(probe.points[:, 1][:, None]
                          - acc_fiber_w[None, :]), axis=1)))
    report["probe_distance"] = far
    report["probe_band"] = band
    report["regime"] = ("AccNeqA" if far > PROBE_THRESHOLD
                        else "AllEqualNonempty")
    return report
