"""Newton predictor-corrector continuation of saddle periodic orbits along
parameter paths, and fiber-monodromy separation evidence for circle-base
maps.

The base periodic point is continued first (1D Newton on p^n(z) - z), then
the fiber point (1D Newton on the composed fiber map), respecting the
skew structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critpost import SaddleOrbit
from .engine import _newton_fiber
from .errors import NumericalError, PreconditionError
from .poly import SkewProduct, fiber_poly
from .sets import (_csv_rows, _escapes, _fiber_tables, _pull_fibers,
                   sample_fiber_julia)

__all__ = [
    "ParamPath",
    "ContinuationTrace",
    "continue_orbit",
    "separation_evidence",
    "trace_to_csv",
]


@dataclass(frozen=True)
class ParamPath:
    """A parameter path: build(lambda) -> SkewProduct over given samples."""

    build: callable
    samples: np.ndarray
    name: str = "lambda"

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=complex))
        if len(self.samples) < 2:
            raise PreconditionError("a path needs at least 2 samples")


@dataclass(frozen=True)
class TraceStep:
    lam: complex
    z: complex
    w: complex
    mu_base: complex
    mu_vert: complex
    residual: float


@dataclass(frozen=True)
class ContinuationTrace:
    steps: list
    outcome: str                # "Completed" | "Lost(...)"
    lost_at: complex | None = None
    reason: str | None = None


def _solve_at(f, z_pred, w_pred, n_base, n_fiber, tol):
    rb = _newton_fiber([f.p] * n_base, z_pred, tol)
    if rb is None:
        return None
    z, mu_b = rb
    orbit = f.p.orbit(z, n_fiber)
    fibers = [fiber_poly(f, zz) for zz in orbit]
    rf = _newton_fiber(fibers, w_pred, tol)
    if rf is None:
        return None
    w, mu_v = rf
    res = abs(f.p.step(orbit[n_base - 1]) - z)
    x = w
    for q in fibers:
        x = q.step(x)
    res = max(res, abs(x - w))
    return z, w, mu_b, mu_v, res


def continue_orbit(path: ParamPath, start: SaddleOrbit,
                   tol: float = 1e-11) -> ContinuationTrace:
    """Continue a saddle orbit along the path, base first, fiber second.

    The fiber point is continued with the full cycle length of the start
    orbit, which may be a strict multiple of the base period.  Steps are
    bisected up to 12 levels on Newton failure before the trace is
    declared Lost(divergence).  A vertical multiplier reaching modulus
    one (or the base multiplier dropping to one) is localized by bisection
    and reported as Lost(multiplier-crossing) at that parameter.
    """
    n = start.base_period
    n_fib = len(start.cycle) if len(start.cycle) else n
    lam0 = complex(path.samples[0])
    f0 = path.build(lam0)
    sol = _solve_at(f0, start.base_point, start.fiber_point, n, n_fib, tol)
    if sol is None:
        raise PreconditionError("start orbit does not converge at the first "
                                "path sample")
    z, w, mu_b, mu_v, res = sol
    steps = [TraceStep(lam0, z, w, mu_b, mu_v, res)]
    prev_lam = lam0

    def try_step(lam, z0, w0):
        return _solve_at(path.build(lam), z0, w0, n, n_fib, tol)

    for lam in path.samples[1:]:
        lam = complex(lam)
        target = lam
        while True:
            sol = try_step(target, z, w)
            if sol is None:
                # adaptive subdivision toward the previous parameter
                ok = False
                for level in range(1, 13):
                    mid = prev_lam + (target - prev_lam) / 2**level
                    sol = try_step(mid, z, w)
                    if sol is not None:
                        target = mid
                        ok = True
                        break
                if not ok:
                    return ContinuationTrace(
                        steps, f"Lost(divergence)", lost_at=target,
                        reason="divergence")
            zt, wt, mub_t, muv_t, rest = sol
            if abs(muv_t) >= 1.0 or abs(mub_t) <= 1.0:
                # localize the multiplier crossing by bisection
                lo, hi = prev_lam, target
                zl, wl = z, w
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    solm = try_step(mid, zl, wl)
                    if solm is None:
                        break
                    if abs(solm[3]) >= 1.0 or abs(solm[2]) <= 1.0:
                        hi = mid
                    else:
                        lo = mid
                        zl, wl = solm[0], solm[1]
                    if abs(hi - lo) < 1e-12:
                        break
                return ContinuationTrace(
                    steps, "Lost(multiplier-crossing)", lost_at=hi,
                    reason="multiplier-crossing")
            z, w, mu_b, mu_v, res = zt, wt, mub_t, muv_t, rest
            steps.append(TraceStep(target, z, w, mu_b, mu_v, res))
            prev_lam = target
            if target == lam:
                break
            target = lam
    return ContinuationTrace(steps, "Completed")


def separation_evidence(fA: SkewProduct, fB: SkewProduct,
                        n_steps: int = 192, n_cloud: int = 400,
                        max_loops: int = 4, seed: int = 11) -> dict:
    """Fiber-monodromy degree comparison for two circle-base maps.

    Tracks a fiber Julia marker around the base circle by nearest-cloud
    matching; the degree is the number of loops needed for the marker to
    return to itself.  Differing degrees are component-separation
    evidence.  Ambiguous matches give verdict "Inconclusive".
    """
    out = {}
    for key, f in (("A", fA), ("B", fB)):
        deg = _monodromy_degree(f, n_steps, n_cloud, max_loops, seed)
        out[key] = deg
    if out["A"] is None or out["B"] is None:
        out["verdict"] = "Inconclusive"
    else:
        out["verdict"] = ("Separated" if out["A"] != out["B"]
                          else "NoEvidence")
    return out


def _monodromy_degree(f, n_steps, n_cloud, max_loops, seed):
    """Loops around the base circle until the tracked marker returns, or
    None.  The fiber maps along the n_steps base orbits are evaluated once
    per call, and each loop's clouds are pulled back through them in one
    batch with that loop's seeds; a cloud over an escaping base orbit
    raises NumericalError when the tracking reaches it, as sampling it
    alone would."""
    cloud0 = sample_fiber_julia(f, 1.0, n_cloud, seed=seed).points
    marker0 = complex(cloud0[np.argmax(np.abs(cloud0))])
    marker = marker0
    tol_return = 0.1
    ks = range(1, n_steps + 1)
    zs = [np.exp(1j * (2.0 * np.pi * k / n_steps)) for k in ks]
    tables, finite = _fiber_tables(f, zs)
    for loop in range(1, max_loops + 1):
        clouds = _pull_fibers(f, tables, finite, n_cloud,
                              [seed + loop * n_steps + k for k in ks])
        for z, cloud in zip(zs, clouds):
            if cloud is None:
                raise NumericalError(_escapes(z))
            d = np.abs(cloud - marker)
            near = cloud[d < 0.12]
            if len(near) == 0:
                return None
            if np.max(np.abs(near[:, None] - near[None, :])) > 0.25:
                return None  # two distant candidates: ambiguous tracking
            marker = complex(near[np.argmin(np.abs(near - marker))])
        if abs(marker - marker0) < tol_return:
            return loop
    return None


def trace_to_csv(trace: ContinuationTrace) -> str:
    rows = np.array([[s.lam.real, s.lam.imag, s.z.real, s.z.imag, s.w.real,
                      s.w.imag, abs(s.mu_base), abs(s.mu_vert), s.residual]
                     for s in trace.steps], dtype=float)
    return _csv_rows("lambda_re,lambda_im,z_re,z_im,w_re,w_im,"
                     "mu_base_abs,mu_vert_abs,residual\n", rows)
