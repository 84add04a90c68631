import numpy as np
import pytest

from mpslc.core import InputError, Metric, PointSet
from mpslc.hamming import (
    build_auxiliary_graph,
    hamming_mst,
    hamming_mst_2d,
)
from mpslc.hardness import GraphInstance, gen_hamming_points
from mpslc.mpc import MpcConfig
from mpslc.oracle import exact_mst, kruskal_edges
from mpslc.slc import k_slc_from_mst

from conftest import integer_points

CFG = MpcConfig(space_s=16384)


def int_ps(rows):
    return PointSet(points=np.asarray(rows, dtype=float), metric=Metric.L0)


def hamming_pairs(ps):
    pts = ps.points.astype(np.int64)
    n = len(pts)
    return [(i, j, float((pts[i] != pts[j]).sum()))
            for i in range(n) for j in range(i + 1, n)]


def test_three_point_example():
    ps = int_ps([[0, 0], [0, 1], [5, 5]])
    tree, _ = hamming_mst(ps, CFG)
    assert sorted(w for _, _, w in tree.edges) == [1.0, 2.0]
    assert tree.total_weight() == 3.0


def test_all_identical_zero_weight():
    ps = int_ps([[2, 2, 2]] * 5)
    tree, _ = hamming_mst(ps, CFG)
    assert tree.total_weight() == 0.0
    assert len(tree.edges) == 4


def test_random_instances_match_kruskal():
    for seed in range(8):
        ps = integer_points(120, 3, seed=seed)
        tree, trace = hamming_mst(ps, CFG)
        want = kruskal_edges(ps.n, hamming_pairs(ps))
        got = sorted(w for _, _, w in tree.edges)
        assert got == sorted(w for _, _, w in want)
        assert trace.max_words() <= CFG.space_s


def test_edge_weights_are_true_hamming_distances():
    ps = integer_points(80, 4, seed=9)
    tree, _ = hamming_mst(ps, CFG)
    pts = ps.points.astype(np.int64)
    for u, v, w in tree.edges:
        assert w == float((pts[u] != pts[v]).sum())


def test_rejects_non_integer():
    ps = PointSet(points=np.array([[0.5, 1.0]]), metric=Metric.L0)
    with pytest.raises(InputError):
        hamming_mst(ps, CFG)


def test_rejects_wrong_metric_tag():
    ps = PointSet(points=np.array([[0.0, 1.0]]), metric=Metric.L2)
    with pytest.raises(InputError):
        hamming_mst(ps, CFG)


def test_2d_fast_path_example():
    ps = int_ps([[1, 1], [2, 2], [1, 2]])
    weight, c = hamming_mst_2d(ps, CFG)
    assert (weight, c) == (2, 1)


def test_2d_fast_path_disjoint_pair():
    ps = int_ps([[0, 0], [1, 1]])
    weight, c = hamming_mst_2d(ps, CFG)
    assert (weight, c) == (2, 2)


def test_2d_fast_path_matches_general():
    for seed in range(5):
        ps = integer_points(500, 2, seed=30 + seed, alphabet=8)
        weight, _ = hamming_mst_2d(ps, CFG)
        tree, _ = hamming_mst(ps, CFG)
        assert weight == tree.total_weight()


def test_2d_fast_path_identical_points():
    # one distinct point: no link, one component, weight 0
    assert hamming_mst_2d(int_ps([[3, 4]] * 4), CFG) == (0, 1)


def test_2d_requires_two_columns():
    ps = integer_points(10, 3, seed=40)
    with pytest.raises(InputError):
        hamming_mst_2d(ps, CFG)


def _k_slc(ps, k):
    return k_slc_from_mst(hamming_mst(ps, CFG)[0], k, ps)


def test_k_slc_on_hardness_instances():
    connected = gen_hamming_points(GraphInstance.one_cycle(12))
    assert _k_slc(connected, 2).objective == 1.0
    disconnected = gen_hamming_points(GraphInstance.two_cycles(12))
    assert _k_slc(disconnected, 2).objective == 2.0


def test_k_slc_matches_oracle():
    for seed in range(4):
        ps = integer_points(50, 3, seed=50 + seed)
        got = _k_slc(ps, 4).objective
        want = k_slc_from_mst(exact_mst(ps), 4, ps).objective
        assert got == want


def _auxiliary_reference(ps):
    """Per mask, a stable sort over projected tuple keys links consecutive
    equal projections at the number of unselected coordinates; the
    lightest link per pair, ascending by (u, v)."""
    pts = ps.points.astype(np.int64).tolist()
    n, d = ps.n, ps.dim
    best = {}
    for mask in range(1 << d):
        cols = [j for j in range(d) if (mask >> j) & 1]
        ordered = sorted(range(n), key=lambda i: tuple(pts[i][j] for j in cols))
        for a, b in zip(ordered, ordered[1:]):
            if [pts[a][j] for j in cols] == [pts[b][j] for j in cols]:
                key = (min(a, b), max(a, b))
                best[key] = min(best.get(key, d), d - len(cols))
    return [(u, v, float(best[(u, v)])) for u, v in sorted(best)]


@pytest.mark.parametrize("n,d", [(1, 3), (2, 1), (2, 3), (30, 1), (40, 3), (25, 8)])
def test_auxiliary_graph_matches_sorted_reference(n, d):
    pts = np.random.default_rng(70 + n + d).integers(0, 2, (n, d))
    if n > 2:
        pts[n // 2:n // 2 + 3] = pts[0]  # exact duplicates
    ps = int_ps(pts)
    aux, trace = build_auxiliary_graph(ps, CFG)
    got = [(int(u), int(v), float(w)) for u, v, w in aux.edges]
    assert got == _auxiliary_reference(ps)
    assert trace.rounds == 4


def test_auxiliary_path_property():
    ps = integer_points(60, 3, seed=60)
    aux, _ = build_auxiliary_graph(ps, CFG)
    pts = ps.points.astype(np.int64)
    n = ps.n
    for t in range(0, ps.dim + 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, w in aux.edges:
            if w <= t:
                parent[find(u)] = find(v)
        for i in range(n):
            for j in range(i + 1, n):
                if (pts[i] != pts[j]).sum() <= t:
                    assert find(i) == find(j)


def test_auxiliary_threshold_components_match_distance_graph():
    ps = integer_points(60, 3, seed=61)
    aux, _ = build_auxiliary_graph(ps, CFG)
    pts = ps.points.astype(np.int64)
    n = ps.n
    for t in range(1, ps.dim + 1):
        def comps(edges):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                parent[find(u)] = find(v)
            return [find(i) for i in range(n)]

        aux_comp = comps([(u, v) for u, v, w in aux.edges if w <= t])
        dist_comp = comps([(i, j) for i in range(n) for j in range(i + 1, n)
                           if (pts[i] != pts[j]).sum() <= t])
        groups = {}
        for i in range(n):
            groups.setdefault(aux_comp[i], set()).add(dist_comp[i])
        assert all(len(v) == 1 for v in groups.values())
        rev = {}
        for i in range(n):
            rev.setdefault(dist_comp[i], set()).add(aux_comp[i])
        assert all(len(v) == 1 for v in rev.values())


def test_dimension_cap():
    ps = PointSet(points=np.zeros((2, 21)), metric=Metric.L0)
    with pytest.raises(InputError):
        hamming_mst(ps, CFG)
