"""Numerical toolkit for polynomial skew products of C^2.

Explore base/fiber Julia sets, postcritical accumulation sets, saddle
orbits, and hyperbolicity certification for skew products
f(z, w) = (p(z), q(z, w)).
"""

from .poly import (
    Poly1,
    Poly2,
    SkewProduct,
    check_regular,
    fiber_poly,
    roots,
)

__version__ = "0.1.0"
