import math

import numpy as np
import pytest

from mpslc.core import CapacityError, Metric, PointSet
from mpslc.oracle import (
    brute_closest_cross_pair,
    exact_mst,
    exhaustive_slc,
    kruskal_points_mst,
)
from mpslc.slc import k_slc_from_mst

from conftest import FLOAT_METRICS, uniform_points


def test_prim_triangle():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    tree = exact_mst(PointSet(points=pts, metric=Metric.L2))
    assert sorted(w for _, _, w in tree.edges) == [3.0, 4.0]


def test_prim_chain_with_gap():
    n = 12
    xs = list(np.arange(n - 1, dtype=float)) + [n - 2 + 100.0]
    ps = PointSet(points=np.asarray(xs).reshape(-1, 1), metric=Metric.L2)
    tree = exact_mst(ps)
    ws = sorted(w for _, _, w in tree.edges)
    assert ws[:-1] == [1.0] * (n - 2)
    assert ws[-1] == 100.0


def test_prim_equals_kruskal():
    for metric in FLOAT_METRICS:
        ps = uniform_points(1000, 3, seed=19, metric=metric)
        prim = exact_mst(ps).sorted_weights()
        krus = kruskal_points_mst(ps).sorted_weights()
        assert np.allclose(prim, krus, rtol=0, atol=1e-12)


def test_prim_capacity_cap():
    pts = np.zeros((20_001, 1))
    with pytest.raises(CapacityError):
        exact_mst(PointSet(points=pts, metric=Metric.L2))


def test_exhaustive_two_points():
    ps = PointSet(points=np.array([[0.0], [2.5]]), metric=Metric.L1)
    assert exhaustive_slc(ps, 2) == 2.5


def test_exhaustive_three_collinear():
    ps = PointSet(points=np.array([[0.0], [1.0], [5.0]]), metric=Metric.L2)
    assert exhaustive_slc(ps, 2) == 4.0


def test_exhaustive_matches_mst_extraction():
    for seed in range(6):
        ps = uniform_points(8, 2, seed=100 + seed)
        tree = exact_mst(ps)
        for k in (2, 3):
            got = k_slc_from_mst(tree, k, ps).objective
            assert got == pytest.approx(exhaustive_slc(ps, k), abs=1e-12)


def test_exhaustive_caps():
    ps = uniform_points(11, 2, seed=1)
    with pytest.raises(CapacityError):
        exhaustive_slc(ps, 2)
    ps2 = uniform_points(9, 2, seed=1)
    with pytest.raises(CapacityError):
        exhaustive_slc(ps2, 5)


def test_exhaustive_k1_undefined():
    ps = uniform_points(4, 2, seed=2)
    assert math.isinf(exhaustive_slc(ps, 1))


def test_brute_pair_two_singletons():
    ps = PointSet(points=np.array([[0.0], [3.0]]), metric=Metric.L2)
    assert brute_closest_cross_pair({0: 0, 1: 1}, ps) == (0, 1, 3.0)


def test_brute_pair_is_minimum():
    ps = uniform_points(100, 2, seed=21)
    comp_of = {i: i % 3 for i in range(100)}
    u, v, tau = brute_closest_cross_pair(comp_of, ps)
    pts = ps.points
    for a in range(100):
        for b in range(a + 1, 100):
            if comp_of[a] != comp_of[b]:
                assert tau <= np.sqrt(((pts[a] - pts[b]) ** 2).sum()) + 1e-12


def test_brute_pair_single_component():
    ps = uniform_points(5, 2, seed=22)
    assert brute_closest_cross_pair({i: 0 for i in range(5)}, ps) is None
