"""Complex polynomial and skew-product algebra.

Dense-coefficient univariate polynomials, bivariate polynomials in (z, w),
and the skew product f(z, w) = (p(z), q(z, w)) with a regularity check
(equal degrees and a constant nonzero top w-coefficient, so the map
extends to the projective plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import NumericalError

__all__ = [
    "Poly1",
    "Poly2",
    "SkewProduct",
    "RootFindError",
    "check_regular",
    "fiber_poly",
    "roots",
]

_FLOAT_MAX = float(np.finfo(float).max)


def _trim(c):
    c = np.asarray(c, dtype=complex)
    if c.ndim == 0:
        c = c.reshape(1)
    nz = np.nonzero(c)[0]
    c = c[: nz[-1] + 1].copy() if len(nz) else np.zeros(1, dtype=complex)
    c.flags.writeable = False  # `Poly1.step` and `deriv` cache from it
    return c


def _horner(b, w):
    """Horner in w on the coefficient rows b, highest power first (each a
    scalar or an array broadcasting with w), in `npoly.polyval`'s order
    (`top + w*0`, then `a + acc*w`), so the values are bit-equal to it.
    In place unless the result has one element: numpy rounds an in-place
    product of one element with its scalar loop, every other with SIMD."""
    rows = iter(b)
    acc = next(rows) + w * 0
    if np.size(acc) > 1:
        for a in rows:
            acc *= w
            acc += a
    else:
        for a in rows:
            acc = a + acc * w
    return acc


@dataclass(frozen=True)
class Poly1:
    """Univariate complex polynomial, coeffs[j] multiplying the j-th power."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, w):
        if isinstance(w, np.ndarray):
            return _horner(self.coeffs[::-1], w)
        return npoly.polyval(w, self.coeffs)

    @cached_property
    def _scalar(self):
        top, *rest = [complex(a) for a in self.coeffs[::-1]]
        return top, rest

    def step(self, x: complex) -> complex:
        """p(x) for a Python complex x: Horner on Python complex
        coefficients in `npoly.polyval`'s order (`top + x*0`, then `a +
        acc*x`), bit-equal to `complex(self(x))` at a fraction of its
        cost, and free of numpy's floating-point warnings."""
        top, rest = self._scalar
        acc = top + x * 0
        for a in rest:
            acc = a + acc * x
        return acc

    @cached_property
    def _deriv(self) -> "Poly1":
        return Poly1(npoly.polyder(self.coeffs))

    def deriv(self) -> "Poly1":
        """The derivative, built on the first call and shared after it."""
        return self._deriv

    def compose(self, inner: "Poly1") -> "Poly1":
        # Horner over polynomial arguments: result = sum a_j * inner^j
        acc = np.array([self.coeffs[-1]], dtype=complex)
        for a in self.coeffs[-2::-1]:
            acc = npoly.polymul(acc, inner.coeffs)
            acc = npoly.polyadd(acc, [a])
        return Poly1(acc)

    def __add__(self, other: "Poly1") -> "Poly1":
        return Poly1(npoly.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly1") -> "Poly1":
        return Poly1(npoly.polysub(self.coeffs, other.coeffs))

    def walk(self, z):
        """The endless forward orbit p(z), p^2(z), ... of the scalar z, each
        a Python complex stepped by `step`."""
        x = complex(z)
        while True:
            x = self.step(x)
            yield x

    def orbit(self, z, n: int) -> list:
        """The first n orbit points z, p(z), ..., p^{n-1}(z) of the scalar z,
        each a Python complex."""
        out = [complex(z), *islice(self.walk(z), max(n - 1, 0))]
        return out[:n]


@dataclass(frozen=True)
class Poly2:
    """Bivariate complex polynomial, coeffs[i, j] multiplying z^i w^j."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        c = np.atleast_2d(np.asarray(coeffs, dtype=complex)).copy()
        object.__setattr__(self, "coeffs", c)

    @property
    def total_degree(self) -> int:
        nz = np.argwhere(self.coeffs != 0)
        if len(nz) == 0:
            return 0
        return int((nz[:, 0] + nz[:, 1]).max())

    def __call__(self, z, w):
        # Horner in w of the z-evaluated coefficient functions.
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        acc = _horner((npoly.polyval(z, c) for c in self.coeffs.T[::-1]), w)
        return acc if acc.shape else complex(acc)

    def dw(self) -> "Poly2":
        """Partial derivative in w."""
        c = self.coeffs
        if c.shape[1] == 1:
            return Poly2(np.zeros((1, 1)))
        j = np.arange(1, c.shape[1])
        return Poly2(c[:, 1:] * j[None, :])


@dataclass(frozen=True)
class SkewProduct:
    """The map f(z, w) = (p(z), q(z, w)) with matching degree d."""

    p: Poly1
    q: Poly2

    @property
    def degree(self) -> int:
        return self.p.degree


def check_regular(f: SkewProduct):
    """Check regularity of a skew product.

    Returns (ok, diagnostic).  Regular means deg p = total degree of q = d
    with d >= 2 and the w^d coefficient of q a nonzero constant in z, which
    is the implementable criterion for extension to the projective plane.
    """
    d = f.p.degree
    if d < 2:
        return False, f"base degree {d} < 2"
    td = f.q.total_degree
    if td != d:
        return False, f"total degree of q is {td}, base degree is {d}"
    c = f.q.coeffs
    if c.shape[1] <= d or c[0, d] == 0:
        return False, "w^d coefficient of q is zero"
    if c.shape[1] > d and np.any(c[1:, d:] != 0):
        return False, "w^d coefficient of q depends on z"
    return True, "regular"


def fiber_poly(f: SkewProduct, z) -> Poly1:
    """The one-variable fiber map w -> q(z, w) over base point z."""
    z = complex(z)
    return Poly1(npoly.polyval(z, f.q.coeffs))


class RootFindError(NumericalError):
    def __init__(self, msg, residuals=None, best=None):
        super().__init__(msg)
        self.residuals = residuals
        self.best = best


def _aberth(coeffs, tol, max_iter=300, seed=0):
    # called under roots' np.errstate: its divisions may overflow
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    cm = c / c[-1]
    # Cauchy bound for the root modulus
    bound = 1.0 + np.max(np.abs(cm[:-1]))
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    ang = 2 * np.pi * k / n + 0.4 + 0.05 * rng.standard_normal(n)
    x = bound * np.exp(1j * ang) * (1 + 0.01 * rng.standard_normal(n))
    dc = npoly.polyder(cm)
    scale = max(np.max(np.abs(c)), 1.0)
    for _ in range(max_iter):
        pv = npoly.polyval(x, cm)
        if np.all(np.abs(pv) * np.abs(c[-1]) <= tol * scale):
            return x
        dv = npoly.polyval(x, dc)
        dv = np.where(dv == 0, 1e-300, dv)
        newt = pv / dv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.nansum(1.0 / diff, axis=1)
        denom = 1.0 - newt * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        x = x - newt / denom
        if not np.all(np.isfinite(x)):
            return None
    return None


def _companion_eigvals(core):
    return np.linalg.eigvals(npoly.polycompanion(core / core[-1]))


def _newton_polish(core, x0, steps=4):
    """Newton steps on the roots x0 of core; a root that the steps make
    non-finite keeps its value from x0."""
    dc = npoly.polyder(core)
    x = x0
    for _ in range(steps):
        dv = npoly.polyval(x, dc)
        dv = np.where(dv == 0, 1e-300, dv)
        x = x - npoly.polyval(x, core) / dv
    return np.where(np.isfinite(x), x, x0)


def _worst(res) -> float:
    """The largest residual, a NaN counting as inf."""
    return np.inf if np.isnan(res).any() else float(np.max(res))


def roots(poly: Poly1, tol: float = 1e-10) -> np.ndarray:
    """All complex roots of the polynomial, with multiplicity.

    Simultaneous-iteration (Aberth-Ehrlich) solver with a companion-matrix
    eigenvalue fallback; each returned root r satisfies
    |poly(r)| <= tol * coefficient scale (after a Newton polish).
    Raises RootFindError when a coefficient is not finite, or when neither
    method meets the residual bound.
    """
    c = _trim(poly.coeffs)
    # not finite when a coefficient is not (max keeps a NaN first argument)
    scale = max(float(np.max(np.abs(c))), 1.0)
    if not math.isfinite(scale):
        raise RootFindError("non-finite polynomial coefficients")
    n = len(c) - 1
    if n < 1:
        raise ValueError("degree must be >= 1")
    # peel off roots at the origin
    lead_zeros = 0
    while c[lead_zeros] == 0 and lead_zeros < n:
        lead_zeros += 1
    core = c[lead_zeros:]
    m = len(core) - 1
    out = [0.0 + 0.0j] * lead_zeros
    if m >= 1:
        eig = None  # companion eigenvalues, solved at most once

        def misses(x, res):
            # capped below inf, the bound is missed by NaN and inf residuals
            top = np.float64(max(1.0, float(np.max(np.abs(x)))))
            bound = min(tol * scale * top ** m, _FLOAT_MAX)
            return not (res <= bound).all()

        # the first solves divide by the leading coefficient, which
        # overflows when it is subnormal; the residual bound judges them
        with np.errstate(all="ignore"):
            if m == 1:
                x = np.array([-core[0] / core[1]])
            else:
                x = _aberth(core, tol)
                if x is None:
                    x = eig = _companion_eigvals(core)
                x = _newton_polish(core, x)
            res = np.abs(npoly.polyval(x, core))
            if misses(x, res):
                x2 = _companion_eigvals(core) if eig is None else eig
                res2 = np.abs(npoly.polyval(x2, core))
                if _worst(res2) < _worst(res):
                    x, res = x2, res2
                if misses(x, res):
                    raise RootFindError(
                        "root solve failed to meet residual bound",
                        residuals=res,
                        best=x,
                    )
        out.extend(x.tolist())
    arr = np.array(out, dtype=complex)
    return arr[np.lexsort((arr.imag, arr.real))]
