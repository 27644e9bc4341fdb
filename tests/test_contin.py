import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewdyn import sets
from skewdyn.contin import (
    ContinuationTrace,
    ParamPath,
    TraceStep,
    _monodromy_degree,
    continue_orbit,
    separation_evidence,
    trace_to_csv,
)
from skewdyn.critpost import find_saddles
from skewdyn.errors import NumericalError, PreconditionError
from skewdyn.families import make_Fa, make_product
from skewdyn.poly import Poly1, Poly2, SkewProduct
from skewdyn.sets import sample_fiber_julia


def _fa_saddle(a=-1.0):
    """The saddle 2-cycle of F_a over the fixed base point 1."""
    saddles = find_saddles(make_Fa(a), max_base_period=1)
    sel = [s for s in saddles
           if abs(s.base_point - 1.0) < 1e-9 and len(s.cycle) == 2]
    assert len(sel) == 1
    return sel[0]


def _path(a0, a1, steps):
    return ParamPath(build=make_Fa, samples=np.linspace(a0, a1, steps))


def test_constant_path_is_constant():
    start = _fa_saddle()
    path = ParamPath(build=make_Fa, samples=np.full(6, -1.0))
    trace = continue_orbit(path, start)
    assert trace.outcome == "Completed"
    z0, w0 = trace.steps[0].z, trace.steps[0].w
    for s in trace.steps:
        assert abs(s.z - z0) < 1e-12
        assert abs(s.w - w0) < 1e-12
        assert s.residual < 1e-10


def test_vertical_multiplier_closed_form():
    # the 2-cycle of w^2 + c has multiplier 4 w0 w1 = 4(c + 1); here the
    # fiber parameter over the fixed base point 1 is c = a
    start = _fa_saddle()
    trace = continue_orbit(_path(-1.0, -0.95, 11), start)
    assert trace.outcome == "Completed"
    for s in trace.steps:
        assert abs(s.mu_vert - 4.0 * (s.lam + 1.0)) < 1e-8
        assert abs(s.mu_vert) < 1.0


def test_multiplier_crossing_detected():
    # 4(a + 1) = -1 exactly at a = -1.25
    start = _fa_saddle()
    trace = continue_orbit(_path(-1.0, -2.0, 41), start)
    assert trace.outcome == "Lost(multiplier-crossing)"
    assert abs(trace.lost_at - (-1.25)) < 1e-3


def test_completed_trace_matches_fresh_solve():
    start = _fa_saddle()
    trace = continue_orbit(_path(-1.0, -0.9, 21), start)
    assert trace.outcome == "Completed"
    end = trace.steps[-1]
    fresh = find_saddles(make_Fa(end.lam), max_base_period=1)
    d = min(abs(s.cycle[:, 0] - end.z).min() + abs(s.cycle[:, 1] - end.w).min()
            for s in fresh)
    assert d < 1e-6


def test_halving_steps_is_stable():
    start = _fa_saddle()
    coarse = continue_orbit(_path(-1.0, -0.9, 11), start)
    fine = continue_orbit(_path(-1.0, -0.9, 21), start)
    assert coarse.outcome == fine.outcome == "Completed"
    assert abs(coarse.steps[-1].z - fine.steps[-1].z) < 1e-8
    assert abs(coarse.steps[-1].w - fine.steps[-1].w) < 1e-8


def test_saddle_inequalities_along_trace():
    start = _fa_saddle()
    trace = continue_orbit(_path(-1.0, -1.2, 21), start)
    assert trace.outcome == "Completed"
    for s in trace.steps:
        assert abs(s.mu_base) > 1.0
        assert abs(s.mu_vert) < 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_continuation_beyond_base_period_one(n):
    # the base point is solved by the same Newton loop as the fiber point,
    # here on n copies of p
    f = make_Fa(-1)
    start = next(s for s in find_saddles(f, max_base_period=n)
                 if s.base_period == n)
    trace = continue_orbit(_path(-1.0, -1.05, 6), start)
    assert trace.outcome == "Completed"
    dp = f.p.deriv()
    for s in trace.steps:
        orbit = f.p.orbit(s.z, n + 1)
        assert abs(orbit[n] - s.z) < 1e-11
        assert abs(s.mu_base - np.prod(dp(np.array(orbit[:n])))) < 1e-12
        assert abs(s.mu_vert) < 1.0


def test_path_needs_two_samples():
    with pytest.raises(PreconditionError):
        ParamPath(build=make_Fa, samples=np.array([-1.0]))


def _trace_rows_by_repr(trace):
    return [f"{s.lam.real!r},{s.lam.imag!r},{s.z.real!r},{s.z.imag!r},"
            f"{s.w.real!r},{s.w.imag!r},{abs(s.mu_base)!r},"
            f"{abs(s.mu_vert)!r},{s.residual!r}" for s in trace.steps]


def test_trace_csv_fields_are_repr_in_exponent_form_too():
    # residuals below 1e-4, huge and non-finite fields take repr's exponent
    # forms and nan/inf, between rows that are positional throughout
    steps = [TraceStep(-1 + 0j, 1 + 0j, -0.5j, 2 + 0j, 0.25 + 0j, 0.0),
             TraceStep(-0.99 + 0j, 1e16 + 1e-05j,
                       complex(math.nan, -math.inf), 3 + 4j, 0.5j, 2.5e-17),
             TraceStep(-0.98 + 0j, 0.9 - 0.1j, 0.1 + 0.2j, 2 + 0j, 0.5 + 0j,
                       1e-3),
             TraceStep(-0.97 + 0j, 0.9 - 0.1j, 0.1 + 0.2j, 2 + 0j, 0.5 + 0j,
                       4e-16)]
    trace = ContinuationTrace(steps, "Completed")
    assert trace_to_csv(trace).splitlines()[1:] == _trace_rows_by_repr(trace)
    assert trace_to_csv(ContinuationTrace([], "Completed")).count("\n") == 1


def test_trace_csv_format():
    start = _fa_saddle()
    trace = continue_orbit(_path(-1.0, -0.98, 5), start)
    csv = trace_to_csv(trace)
    lines = csv.strip().splitlines()
    assert lines[0] == ("lambda_re,lambda_im,z_re,z_im,w_re,w_im,"
                        "mu_base_abs,mu_vert_abs,residual")
    assert len(lines) == 1 + len(trace.steps)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == -1.0 and len(first) == 9
    assert lines[1:] == _trace_rows_by_repr(trace)
    # deterministic serialization
    assert csv == trace_to_csv(trace)


def test_separation_twisted_vs_product():
    fA = make_Fa(-1)
    fB = make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1]))
    rep = separation_evidence(fA, fB)
    assert rep["A"] == 2
    assert rep["B"] == 1
    assert rep["verdict"] == "Separated"


def test_separation_product_against_itself():
    f = make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1]))
    rep = separation_evidence(f, f)
    assert rep["A"] == rep["B"] == 1
    assert rep["verdict"] != "Separated"


# ---- the monodromy loop over batched clouds


def per_cloud_degree(f, n_steps, n_cloud, max_loops, seed):
    """The loop as it was before each loop's clouds were sampled together:
    one `sample_fiber_julia` call per cloud, raising where it raises."""
    cloud0 = sample_fiber_julia(f, 1.0, n_cloud, seed=seed).points
    marker0 = complex(cloud0[np.argmax(np.abs(cloud0))])
    marker = marker0
    for loop in range(1, max_loops + 1):
        for k in range(1, n_steps + 1):
            theta = 2.0 * np.pi * k / n_steps
            z = np.exp(1j * theta)
            cloud = sample_fiber_julia(f, z, n_cloud,
                                       seed=seed + loop * n_steps + k).points
            d = np.abs(cloud - marker)
            near = cloud[d < 0.12]
            if len(near) == 0:
                return None
            if np.max(np.abs(near[:, None] - near[None, :])) > 0.25:
                return None
            marker = complex(near[np.argmin(np.abs(near - marker))])
        if abs(marker - marker0) < 0.1:
            return loop
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except NumericalError as e:
        return f"NumericalError: {e}"


PRODUCT = make_product(Poly1([0, 0, 1]), Poly1([-1, 0, 1]))
# over z^2 - 0.1 the base point 1 stays bounded but most of the unit
# circle escapes: with w^2 + 5z the tracking gives up (None) at k = 1,
# before the first escaping cloud (k = 2 of 16); with w^2 + 0.2z it
# reaches the first escaping cloud (k = 5 of 48), which raises
BIG_SHIFT = SkewProduct(p=Poly1([-0.1, 0, 1]), q=Poly2([[0, 0, 1], [5, 0, 0]]))
SMALL_SHIFT = SkewProduct(p=Poly1([-0.1, 0, 1]),
                          q=Poly2([[0, 0, 1], [0.2, 0, 0]]))


@pytest.mark.parametrize("f, n_steps, n_cloud, max_loops, seed, want", [
    (make_Fa(-1), 192, 400, 4, 11, 2),
    (PRODUCT, 192, 400, 4, 11, 1),
    (make_Fa(-1), 48, 120, 2, 5, None),
    (BIG_SHIFT, 16, 64, 2, 3, None),
    (SMALL_SHIFT, 48, 64, 2, 3, "NumericalError: a fiber map along the "
     "base orbit of (0.7933533402912352+0.6087614290087207j) is not finite, "
     "or a point pulled back through those maps overflows (the orbit "
     "escapes)"),
])
def test_monodromy_degree_equals_per_cloud_loop(f, n_steps, n_cloud,
                                                max_loops, seed, want):
    args = (f, n_steps, n_cloud, max_loops, seed)
    got = outcome(_monodromy_degree, *args)
    assert got == outcome(per_cloud_degree, *args)
    assert got == want


@settings(max_examples=12, deadline=None)
@given(st.complex_numbers(max_magnitude=1.2), st.integers(4, 40),
       st.integers(8, 150), st.integers(1, 3), st.integers(0, 1000))
def test_monodromy_degree_equals_per_cloud_loop_on_Fa(a, n_steps, n_cloud,
                                                      max_loops, seed):
    args = (make_Fa(a), n_steps, n_cloud, max_loops, seed)
    assert outcome(_monodromy_degree, *args) == outcome(per_cloud_degree,
                                                        *args)


def test_separation_pulls_back_once_per_loop(monkeypatch):
    calls = []
    pullback = sets._pullback

    def counted(tables, *args):
        calls.append(tables.shape[-1])
        return pullback(tables, *args)

    monkeypatch.setattr(sets, "_pullback", counted)
    for f in (make_Fa(-1), PRODUCT):
        calls.clear()
        deg = _monodromy_degree(f, 192, 400, 4, 11)
        # the cloud over 1, then one batch of 192 rows per loop
        assert calls == [1] + [192] * deg
        assert len(calls) <= 4 + 1
    calls.clear()
    assert separation_evidence(make_Fa(-1), PRODUCT)["verdict"] == "Separated"
    assert len(calls) <= 2 * (4 + 1)
