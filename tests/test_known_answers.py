"""Known answers from product maps f = (p(z), g(w)).

A product is a regular skew product whose answers follow from
one-variable theory, so each expected value here is computed from p and g
alone, with no call into `critpost` or `chain`:

- f is Axiom A exactly when p and g are hyperbolic (Jonsson, Math. Ann.
  1999), and a quadratic is hyperbolic exactly when its critical orbit
  escapes or settles on an attracting cycle;
- the critical locus over J_p is J_p x crit(g), so A_pt = A_cc =
  A(C_{J_p}) = J_p x (the attracting cycles of g): the chain regime is
  `AllEmpty` when the critical orbit of g escapes and `AllEqualNonempty`
  when it settles on an attracting cycle.

The list of maps was fixed before the test was first run.  Each map runs
through the command line at its defaults, as a user would run it.
"""

import json

import pytest

from skewdyn.cli import main

BASES = {"z^2": [0, 0, 1], "z^2-1": [-1, 0, 1]}
FIBERS = {
    "w^2-1": -1,            # superattracting 2-cycle
    "w^2+1/2": 0.5,         # the critical orbit escapes: a Cantor set
    "w^2+1/4": 0.25,        # parabolic fixed point, multiplier 1
    "w^2-3/4": -0.75,       # parabolic fixed point, multiplier -1
    "w^2+i": 1j,            # Misiurewicz: 0 -> i -> i - 1 -> -i -> i - 1
}


def critical_fate(c: complex, n_iter: int = 20000, max_period: int = 64,
                  tol: float = 1e-10):
    """The fate of the critical orbit of x^2 + c: "escapes", the
    multiplier of the cycle it settles on, or None when it settles on no
    cycle within n_iter steps (a parabolic or a Misiurewicz parameter)."""
    radius, x, orbit = max(2.0, abs(c)), 0j, []
    for _ in range(n_iter):
        x = x * x + c
        if abs(x) > radius:
            return "escapes"
        orbit.append(x)
    tail = orbit[-2 * max_period:]
    for k in range(1, max_period + 1):
        if all(abs(a - b) < tol for a, b in zip(tail[k:], tail)):
            multiplier = 1.0
            for x in tail[-k:]:
                multiplier *= 2.0 * x
            return multiplier
    return None


def hyperbolic(c: complex) -> bool:
    fate = critical_fate(c)
    return fate == "escapes" or (fate is not None and abs(fate) < 1.0)


def run(tmp_path, argv, artifact):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    with open(out / artifact) as fh:
        return json.load(fh)


def product_flags(p, c):
    return ["--family", "product", "--p=" + ",".join(map(str, p)),
            f"--q={c},0,1"]


def test_the_oracle_on_its_named_parameters():
    assert critical_fate(-1) == 0j             # 0 -> -1 -> 0, superattracting
    assert critical_fate(0.5) == "escapes"
    assert [hyperbolic(c) for c in FIBERS.values()] == [True, True, False,
                                                        False, False]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("g", FIBERS)
@pytest.mark.parametrize("p", BASES)
def test_certify_verdict_is_the_product_truth(tmp_path, p, g, seed):
    want = hyperbolic(BASES[p][0]) and hyperbolic(FIBERS[g])
    rep = run(tmp_path, ["certify"] + product_flags(BASES[p], FIBERS[g])
              + ["--seed", str(seed)], "certify.json")
    assert rep["verdict"].startswith("Certified") == want, rep


@pytest.mark.parametrize("c", [-1, complex(-0.12, 0.75)])
@pytest.mark.parametrize("p", BASES)
def test_chain_regime_is_the_product_truth(tmp_path, p, c):
    fate = critical_fate(c)
    assert fate != "escapes" and abs(fate) < 1.0   # g has an attracting cycle
    rep = run(tmp_path, ["chain"] + product_flags(BASES[p], c), "chain.json")
    assert rep["regime"] == "AllEqualNonempty"
