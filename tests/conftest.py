import json
import pathlib

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

SCHEMA_DIR = (pathlib.Path(__file__).resolve().parent.parent
              / "src" / "skewdyn" / "schemas")


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return json.load(fh)


def validate_schema(obj, name: str):
    import jsonschema

    jsonschema.validate(obj, load_schema(name))


def poly2_reference(q, z, w):
    """q(z, w) as `Poly2.__call__` computed it before `poly._horner`: Horner
    in w out of place from zeros, on the per-column `npoly.polyval` of the
    coefficients at z.  A reference for the shared kernel, not built on
    it."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    acc = np.zeros(np.broadcast(z, w).shape, dtype=complex)
    for j in range(q.coeffs.shape[1] - 1, -1, -1):
        acc = acc * w + npoly.polyval(z, q.coeffs[:, j])
    return acc if acc.shape else complex(acc)


@pytest.fixture(scope="session")
def s1s2_basic():
    """The two-attractor construction for s1 = w^2, s2 = w^2 - 1 (cached:
    the constant search is the expensive part)."""
    from skewdyn.families import build_s1s2
    from skewdyn.poly import Poly1

    s1 = Poly1([0.0, 0.0, 1.0])
    s2 = Poly1([-1.0, 0.0, 1.0])
    f, consts = build_s1s2(s1, s2, 1, 1, seed=0)
    return f, consts, s1, s2
