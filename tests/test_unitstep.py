import math
import tracemalloc

import numpy as np
import pytest

from mpslc.core import Metric, PointSet
from mpslc.oracle import brute_closest_cross_pair, kruskal_points_mst
from mpslc.unitstep import unit_step

from conftest import uniform_points


def line_points(values):
    return PointSet(points=np.asarray(values, dtype=float).reshape(-1, 1),
                    metric=Metric.L2)


def singletons(ids):
    return {int(i): int(i) for i in ids}


def run_step(comp_of, level_diam, eps, ps):
    """unit_step on the reps and labels of a {rep: label} dict."""
    rep_ids = np.asarray(sorted(comp_of), dtype=np.int64)
    labels = np.asarray([comp_of[r] for r in rep_ids], dtype=np.int64)
    return unit_step(rep_ids, labels, level_diam, eps, ps)


def covering(ids, radius, ps):
    """Covering at `radius` from a one-component cell, which emits no edges:
    eps = 1/2 and level_diam = 4 * radius give eps^2 * level_diam = radius."""
    cover, _labels, edges = run_step({int(i): 0 for i in ids}, 4.0 * radius, 0.5, ps)
    assert edges == []
    return cover


def test_covering_large_radius_single_rep():
    ps = uniform_points(30, 2, seed=1)
    cover = covering(range(30), radius=10.0, ps=ps)
    assert cover == [0]


def test_covering_singleton():
    ps = uniform_points(5, 2, seed=2)
    assert covering([3], radius=0.1, ps=ps) == [3]


def test_covering_line_example():
    ps = line_points([0.0, 0.1, 0.9, 1.0])
    cover = covering(range(4), radius=0.25, ps=ps)
    assert len(cover) <= 4
    for i in range(4):
        assert min(abs(ps.points[i, 0] - ps.points[c, 0]) for c in cover) <= 0.25


def test_covering_radius_property_random():
    ps = uniform_points(200, 3, seed=3)
    for radius in (0.05, 0.2, 0.7):
        cover = covering(range(200), radius, ps)
        pts = ps.points
        for i in range(200):
            d = np.sqrt(((pts[cover] - pts[i]) ** 2).sum(axis=1)).min()
            assert d <= radius + 1e-12


def test_covering_radius_zero_keeps_lowest_id_per_point():
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.0, 1e-300]])
    ps = PointSet(points=pts, metric=Metric.L2)
    cover, labels, edges = run_step({i: 0 for i in range(5)}, 1.0, 0.0, ps)
    assert edges == []
    assert cover == [0, 1, 4]
    assert labels.tolist() == [0, 0, 0]


def test_unit_step_single_component_no_edges():
    ps = uniform_points(20, 2, seed=8)
    cover, labels, edges = run_step({i: 7 for i in range(20)}, 1.0, 0.25, ps)
    assert edges == []
    assert set(cover) <= set(range(20))
    assert all(label == 7 for label in labels)


def test_unit_step_two_points_merge():
    ps = line_points([0.0, 1.0])
    cover, labels, edges = run_step(singletons([0, 1]), 4.0, 0.5, ps)
    assert edges == [(0, 1, 1.0)]
    assert cover[0] == 0 and labels[0] == 0


def test_unit_step_collinear_threshold():
    # threshold eps * diam = 1.5 admits exactly the four unit gaps
    ps = line_points([0.0, 1.0, 2.0, 3.0, 4.0])
    _cover, _labels, edges = run_step(singletons(range(5)), 3.0, 0.5, ps)
    assert [(u, v) for u, v, _ in edges] == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert all(w == 1.0 for _, _, w in edges)


def test_unit_step_threshold_stops():
    ps = line_points([0.0, 1.0, 5.0])
    _cover, labels, edges = run_step(singletons(range(3)), 4.0, 0.5, ps)
    assert [(u, v, w) for u, v, w in edges] == [(0, 1, 1.0)]
    assert len(set(labels.tolist())) == 2


def test_unit_step_eps_zero_unbounded_equals_kruskal():
    for seed in (1, 2, 3):
        ps = uniform_points(150, 2, seed=seed)
        _cover, _labels, edges = run_step(singletons(range(150)), math.inf, 0.0, ps)
        got = sorted(round(w, 12) for _, _, w in edges)
        want = sorted(round(w, 12) for _, _, w in kruskal_points_mst(ps).edges)
        assert got == want


def test_unit_step_emission_is_nondecreasing():
    ps = uniform_points(300, 3, seed=9)
    _cover, _labels, edges = run_step(singletons(range(300)), math.inf, 0.0, ps)
    ws = [w for _, _, w in edges]
    assert ws == sorted(ws)


def test_unit_step_replay_matches_oracle_taus():
    ps = uniform_points(60, 2, seed=10)
    _cover, _labels, edges = run_step(singletons(range(60)), math.inf, 0.0, ps)
    replay = singletons(range(60))
    for u, v, w in edges:
        tau = brute_closest_cross_pair(replay, ps)[2]
        assert w == pytest.approx(tau, abs=1e-12)
        a, b = replay[u], replay[v]
        assert a != b
        lo = min(a, b)
        for r, lab in replay.items():
            if lab in (a, b):
                replay[r] = lo


def test_unit_step_thresholded_replay_within_eps_of_tau():
    ps = uniform_points(80, 2, seed=14)
    eps = 0.2
    _cover, _labels, edges = run_step(singletons(range(80)), 0.6, eps, ps)
    assert edges
    replay = singletons(range(80))
    for u, v, w in edges:
        tau = brute_closest_cross_pair(replay, ps)[2]
        assert w <= (1 + eps) * tau + 1e-12
        a, b = replay[u], replay[v]
        lo = min(a, b)
        for r, lab in replay.items():
            if lab in (a, b):
                replay[r] = lo


def test_unit_step_edges_acyclic():
    ps = uniform_points(400, 2, seed=11)
    _cover, _labels, edges = run_step(singletons(range(400)), 0.4, 0.5, ps)
    parent = list(range(400))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        assert find(u) != find(v)
        parent[find(u)] = find(v)


def test_unit_step_covering_and_labels_consistent():
    ps = uniform_points(500, 2, seed=12)
    cover, labels, _edges = run_step(singletons(range(500)), 0.5, 0.3, ps)
    radius = 0.3 * 0.3 * 0.5
    pts = ps.points
    for i in range(500):
        d = np.sqrt(((pts[cover] - pts[i]) ** 2).sum(axis=1)).min()
        assert d <= radius + 1e-12
    assert len(labels) == len(cover)


def test_unit_step_grid_path_matches_brute():
    # above the brute cutoff the bucket engine must agree exactly
    ps = uniform_points(600, 2, seed=13)
    _cover, _labels, edges = run_step(singletons(range(600)), math.inf, 0.0, ps)
    want = sorted(round(w, 12) for _, _, w in kruskal_points_mst(ps).edges)
    got = sorted(round(w, 12) for _, _, w in edges)
    assert got == want


def test_unit_step_duplicate_points_merge_at_zero():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    ps = PointSet(points=pts, metric=Metric.L2)
    cover, _labels, edges = run_step(singletons(range(3)), 1e-9, 0.5, ps)
    assert (0, 1, 0.0) in edges
    assert len(cover) == 2


def test_unit_step_brute_engine_memory_bounded():
    # d above GRID_MAX_DIM sends a 300-point root cell to the brute engine;
    # a one-block distance tensor would need 2 x 300 x 300 x 100 floats
    ps = uniform_points(300, 100, seed=15)
    tracemalloc.start()
    try:
        _cover, _labels, edges = run_step(singletons(range(300)), math.inf, 0.5, ps)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 299
    assert peak < 64 * 2**20
