import math

import numpy as np
import pytest

from mpslc.core import InputError, Metric, Seed, rng_stream
from mpslc.hardness import (
    GraphInstance,
    GraphKind,
    JlParams,
    gen_cycle_vectors,
    gen_edge_vectors,
    gen_hamming_points,
    jl_project,
)
from mpslc.core import SparsePoint

from conftest import graph_from_edges, sparse_distance

ADJ_L2 = math.sqrt(2.0) * math.sqrt(2.0 - math.sqrt(2.0))
RATIO_L2 = math.sqrt(2.0 + math.sqrt(2.0))


def test_cycle_instance_shapes():
    g = GraphInstance.one_cycle(8)
    vs = gen_cycle_vectors(g)
    assert len(vs) == 8
    assert all(len(v.entries) == 3 for v in vs)
    assert all(v.dim == 8 for v in vs)


def test_cycle_adjacent_distance_l2():
    vs = gen_cycle_vectors(GraphInstance.one_cycle(10))
    d = sparse_distance(vs[0], vs[1], Metric.L2)
    assert d == pytest.approx(ADJ_L2, abs=1e-9)
    assert d == pytest.approx(1.0823922, abs=1e-6)


def test_cycle_far_pair_distance_l2():
    vs = gen_cycle_vectors(GraphInstance.one_cycle(10))
    d = sparse_distance(vs[0], vs[5], Metric.L2)
    assert d == pytest.approx(2.0, abs=1e-9)
    assert d / ADJ_L2 == pytest.approx(RATIO_L2, abs=1e-6)
    # cycle distance 2: the shared neighbor coordinate cancels, sqrt(2 + 2 xi^2)
    mid = sparse_distance(vs[0], vs[2], Metric.L2)
    assert mid == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert ADJ_L2 < mid < d


def test_cycle_distances_l1():
    vs = gen_cycle_vectors(GraphInstance.one_cycle(10), xi=1.0, metric=Metric.L1)
    assert sparse_distance(vs[0], vs[1], Metric.L1) == pytest.approx(2.0, abs=1e-12)
    assert sparse_distance(vs[0], vs[5], Metric.L1) == pytest.approx(6.0, abs=1e-12)
    # cycle distance 2: the shared neighbor coordinate cancels, 2 + 2 xi
    assert sparse_distance(vs[0], vs[2], Metric.L1) == pytest.approx(4.0, abs=1e-12)


def test_cycle_rejects_non_two_regular():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError):
        gen_cycle_vectors(g)


def test_cycle_rejects_short_cycles():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InputError):
        gen_cycle_vectors(g)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_cycle_rejects_non_finite_xi(xi):
    with pytest.raises(InputError, match=f"^xi = {xi:g} must be finite$"):
        gen_cycle_vectors(GraphInstance.one_cycle(8), xi=xi)


def test_two_cycles_cross_pairs_at_far_value():
    g = GraphInstance.two_cycles(12)
    vs = gen_cycle_vectors(g)
    for i in range(6):
        for j in range(6, 12):
            assert sparse_distance(vs[i], vs[j], Metric.L2) == pytest.approx(
                2.0, abs=1e-9
            )


def test_edge_vectors_shapes_and_distances():
    g = GraphInstance.one_cycle(8)
    vs = gen_edge_vectors(g)
    assert len(vs) == 8
    assert all(len(v.entries) == 2 for v in vs)
    # consecutive cycle edges share one vertex, opposite edges none
    assert sparse_distance(vs[0], vs[1], Metric.L2) == pytest.approx(
        math.sqrt(2), abs=1e-9)
    assert sparse_distance(vs[0], vs[4], Metric.L2) == pytest.approx(2.0, abs=1e-9)
    assert sparse_distance(vs[0], vs[1], Metric.L1) == pytest.approx(2.0, abs=1e-12)
    assert sparse_distance(vs[0], vs[4], Metric.L1) == pytest.approx(4.0, abs=1e-12)


def test_edge_vectors_reject_isolated():
    g = graph_from_edges(3, [(0, 1)])
    with pytest.raises(InputError):
        gen_edge_vectors(g)


def test_hamming_points_single_edge():
    g = graph_from_edges(2, [(0, 1)])
    ps = gen_hamming_points(g)
    rows = {tuple(r) for r in ps.points.astype(int)}
    assert rows == {(0, 0), (1, 1), (0, 1)}
    assert ps.metric is Metric.L0


def test_hamming_points_count():
    g = GraphInstance.one_cycle(9)
    ps = gen_hamming_points(g)
    assert ps.n == 9 + 9


def test_graph_instance_validation():
    with pytest.raises(InputError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(InputError):
        graph_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        GraphInstance(n_vertices=6, edges=((0, 1), (1, 2), (2, 0)),
                      kind=GraphInstance.one_cycle(6).kind)


def test_cycle_lengths_and_degrees():
    five = [(i, (i + 1) % 5) for i in range(5)]
    seven = [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    g = graph_from_edges(12, five + seven)
    assert g.cycle_lengths() == [5, 7]
    assert g.degrees().tolist() == [2] * 12
    with pytest.raises(InputError):
        GraphInstance(n_vertices=12, edges=tuple(five + seven), kind=GraphKind.TWO_CYCLES)
    path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert path.cycle_lengths() == []
    assert path.degrees().tolist() == [1, 2, 2, 1]
    # disjoint cycles of known lengths on shuffled vertex ids
    rng = np.random.default_rng(12)
    for _ in range(20):
        lengths = rng.integers(3, 9, size=rng.integers(1, 5)).tolist()
        ids = rng.permutation(sum(lengths))
        edges, start = [], 0
        for length in lengths:
            ring = ids[start:start + length]
            edges += [(int(ring[i]), int(ring[(i + 1) % length])) for i in range(length)]
            start += length
        assert graph_from_edges(len(ids), edges).cycle_lengths() == sorted(lengths)


def test_jl_params_auto_floor():
    p = JlParams.auto(64, 0.2, Seed(1))
    assert p.target_dim == math.ceil(8.0 * math.log(64) / 0.04)


def test_jl_zero_vector_maps_to_zero():
    zero_adjacent = SparsePoint(entries=(), dim=8)
    one = SparsePoint(entries=((2, 1.0),), dim=8)
    out = jl_project([zero_adjacent, one], JlParams(target_dim=16, seed=Seed(3)))
    assert np.allclose(out.points[0], 0.0)
    assert not np.allclose(out.points[1], 0.0)


def test_jl_preserves_pairwise_distances():
    vs = gen_cycle_vectors(GraphInstance.one_cycle(64))
    eps = 0.2
    ok = False
    for attempt in range(3):
        params = JlParams.auto(64, eps, Seed(700 + attempt))
        out = jl_project(vs, params)
        good = True
        for i in range(64):
            for j in range(i + 1, 64):
                pre = sparse_distance(vs[i], vs[j], Metric.L2)
                post = float(np.sqrt(((out.points[i] - out.points[j]) ** 2).sum()))
                if not (1 - eps) * pre <= post <= (1 + eps) * pre:
                    good = False
        if good:
            ok = True
            break
    assert ok


def test_jl_preserves_adjacency_gap():
    g = GraphInstance.one_cycle(64)
    vs = gen_cycle_vectors(g)
    eps = 0.2
    adj = {(min(u, v), max(u, v)) for u, v in g.edges}
    out = jl_project(vs, JlParams.auto(64, eps, Seed(900)))
    max_adj = 0.0
    min_non = math.inf
    for i in range(64):
        for j in range(i + 1, 64):
            d = float(np.sqrt(((out.points[i] - out.points[j]) ** 2).sum()))
            if (i, j) in adj:
                max_adj = max(max_adj, d)
            else:
                min_non = min(min_non, d)
    assert min_non / max_adj >= RATIO_L2 * (1 - eps) / (1 + eps)


def test_jl_deterministic_for_seed():
    vs = gen_cycle_vectors(GraphInstance.one_cycle(16))
    p = JlParams(target_dim=32, seed=Seed(9))
    a = jl_project(vs, p)
    b = jl_project(vs, p)
    assert np.array_equal(a.points, b.points)


def _jl_project_by_entries(vs, p):
    """The projection as one loop over every vector's entries in order."""
    rng = rng_stream(p.seed, "jl-matrix")
    mat = rng.standard_normal((p.target_dim, vs[0].dim)) / math.sqrt(p.target_dim)
    out = np.zeros((len(vs), p.target_dim))
    for row, v in enumerate(vs):
        for idx, val in v.entries:
            out[row] += val * mat[:, idx]
    return out


def test_jl_project_matches_entry_loop_bit_for_bit():
    # one pass per entry slot does each row's float operations in the
    # order of the entry loop, so the points are equal to the last bit
    cases = [(gen_cycle_vectors(GraphInstance.one_cycle(400)), JlParams.auto(400, 0.5, Seed(1))),
             (gen_cycle_vectors(GraphInstance.two_cycles(400)), JlParams.auto(400, 0.5, Seed(2)))]
    rng = np.random.default_rng(41)
    random = []
    for count in rng.integers(1, 6, 300):
        idx = np.sort(rng.choice(50, count, replace=False))
        vals = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 8, count)
        random.append(SparsePoint(entries=tuple(zip(idx.tolist(), vals.tolist())), dim=50))
    cases.append((random, JlParams(target_dim=33, seed=Seed(5))))
    for vs, p in cases:
        got = jl_project(vs, p).points
        assert got.view(np.int64).tolist() == _jl_project_by_entries(vs, p).view(np.int64).tolist()
