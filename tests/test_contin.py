import math

import numpy as np
import pytest

from skewdyn.contin import (
    ContinuationTrace,
    ParamPath,
    TraceStep,
    continue_orbit,
    separation_evidence,
    trace_to_csv,
)
from skewdyn.critpost import find_saddles
from skewdyn.errors import PreconditionError
from skewdyn.families import make_Fa, make_product
from skewdyn.poly import Poly1


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
    assert trace.outcome.startswith("Lost")
    assert trace.reason == "multiplier-crossing"
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
