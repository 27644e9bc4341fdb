from unittest import mock

import numpy as np
import pytest

from skewdyn import critpost
from skewdyn.chain import chain_report, repelling_periodic_points
from skewdyn.families import build_s1s2, make_Fa
from skewdyn.poly import Poly1


def test_repelling_periodic_points_of_square():
    pts = repelling_periodic_points(Poly1([0, 0, 1]), max_period=2)
    # fixed point 1 plus the 2-cycle of primitive cube roots of unity;
    # the superattracting fixed point 0 is excluded
    assert len(pts) == 3
    w3 = np.exp(2j * np.pi / 3)
    for target in (1.0, w3, w3.conjugate()):
        assert np.min(np.abs(pts - target)) < 1e-8


def test_repelling_periodic_points_basilica_base():
    pts = repelling_periodic_points(Poly1([-1, 0, 1]), max_period=1)
    # fixed points of z^2 - 1 are (1 +- sqrt(5))/2, both repelling
    phi = (1 + np.sqrt(5)) / 2
    assert len(pts) == 2
    assert np.min(np.abs(pts - phi)) < 1e-8
    assert np.min(np.abs(pts - (1 - phi))) < 1e-8


def test_chain_all_empty_regime():
    rep = chain_report(make_Fa(2), n_base=150, n_j2=400, seed=7)
    assert rep["regime"] == "AllEmpty"
    assert rep["apt_count"] == 0 and rep["acc_count"] == 0


def test_chain_all_equal_regime():
    rep = chain_report(make_Fa(-1), n_base=150, n_j2=400, seed=7)
    assert rep["regime"] == "AllEqualNonempty"
    assert rep["apt_count"] > 0 and rep["acc_count"] > 0
    # per-component accumulation stays close to the pointwise tails
    assert rep["acc_to_apt"] <= 10.0 * rep["ratio_floor"]


def test_chain_report_determinism():
    a = chain_report(make_Fa(-1), n_base=100, n_j2=240, seed=3)
    b = chain_report(make_Fa(-1), n_base=100, n_j2=240, seed=3)
    assert a["regime"] == b["regime"]
    assert np.array_equal(a["clouds"]["apt"].points, b["clouds"]["apt"].points)
    assert np.array_equal(a["clouds"]["acc"].points, b["clouds"]["acc"].points)


def test_chain_nesting():
    # the pointwise cloud embeds in the component cloud at tolerance
    from skewdyn.sets import directed_hausdorff

    rep = chain_report(make_Fa(-1), n_base=150, n_j2=400, seed=7)
    apt, acc = rep["clouds"]["apt"], rep["clouds"]["acc"]
    assert directed_hausdorff(apt, acc) < 1e-6


@pytest.mark.parametrize("make", [
    lambda: make_Fa(-1),
    # its base rows repeat, so an index over the distinct base points would
    # give a second walk another drift tolerance
    lambda: build_s1s2(Poly1([0, 0, 1]), Poly1([-1, 0, 1]), 1, 1)[0],
], ids=["Fa(-1)", "s1s2"])
def test_chain_report_walks_the_critical_orbits_once(monkeypatch, make):
    counted = {name: mock.Mock(wraps=getattr(critpost, name))
               for name in ("_run_spans", "_base_snap")}
    for name, m in counted.items():
        monkeypatch.setattr(critpost, name, m)
    rep = chain_report(make(), n_base=100, n_j2=240, seed=7)
    assert rep["acc_count"] > 0
    assert {name: m.call_count for name, m in counted.items()} == {
        "_run_spans": 1, "_base_snap": 1}
