import numpy as np
import pytest

from mpslc import hamming
from mpslc.core import CapacityError, InputError, Metric, PointSet
from mpslc.hamming import build_auxiliary_graph, hamming_mst
from mpslc.hardness import GraphInstance, gen_hamming_points
from mpslc.mpc import MpcConfig
from mpslc.oracle import exact_mst, kruskal_edges
from mpslc.slc import k_slc_from_mst

from conftest import integer_points, overlay_sorts, total_weight

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
    assert total_weight(tree) == 3.0


def test_all_identical_zero_weight():
    ps = int_ps([[2, 2, 2]] * 5)
    tree, _ = hamming_mst(ps, CFG)
    assert total_weight(tree) == 0.0
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
    assert total_weight(hamming_mst(ps, CFG)[0]) == 2


def test_2d_fast_path_disjoint_pair():
    ps = int_ps([[0, 0], [1, 1]])
    assert total_weight(hamming_mst(ps, CFG)[0]) == 2


def test_2d_fast_path_matches_general():
    for seed in range(5):
        ps = integer_points(500, 2, seed=30 + seed, alphabet=8)
        assert total_weight(hamming_mst(ps, CFG)[0]) == total_weight(exact_mst(ps))


def test_2d_fast_path_identical_points():
    assert total_weight(hamming_mst(int_ps([[3, 4]] * 4), CFG)[0]) == 0


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
    pts = ps.points.tolist()
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


AUX_SHAPES = [(1, 3), (2, 1), (2, 3), (30, 1), (40, 3), (25, 8)]
# negative values and a span far wider than n
WIDE = (-7, 0, 5, 10**12)


@pytest.mark.parametrize("n,d,alphabet", (
    [pytest.param(n, d, (0, 1), id=f"{n}-{d}") for n, d in AUX_SHAPES]
    + [pytest.param(n, d, WIDE, id=f"{n}-{d}-wide") for n, d in AUX_SHAPES]
    # n times the values per column passes 2^16: the sort keys are wider
    + [pytest.param(300, 3, tuple(range(-500, 500)), id="300-3-many")]))
def test_auxiliary_graph_matches_sorted_reference(n, d, alphabet):
    rng = np.random.default_rng(70 + n + d)
    pts = np.asarray(alphabet, dtype=float)[rng.integers(0, len(alphabet), (n, d))]
    if n > 2:
        pts[n // 2:n // 2 + 3] = pts[0]  # exact duplicates
    ps = int_ps(pts)
    aux, trace = build_auxiliary_graph(ps, CFG)
    got = [(int(u), int(v), float(w)) for u, v, w in aux.edges]
    assert got == _auxiliary_reference(ps)
    assert trace.rounds == 4


def _mask_links(pts):
    """Every mask's links, from np.unique row ids of its projection: the
    raw link count and the lightest link per pair, ascending by (u, v)."""
    n, d = pts.shape
    us, vs, ws = [], [], []
    for mask in range(1 << d):
        cols = [j for j in range(d) if (mask >> j) & 1]
        row_ids = np.zeros(n, dtype=np.int64)
        if cols:
            row_ids = np.unique(pts[:, cols], axis=0, return_inverse=True)[1].reshape(-1)
        order = np.argsort(row_ids, kind="stable")
        same = row_ids[order][1:] == row_ids[order][:-1]
        us.append(order[:-1][same])
        vs.append(order[1:][same])
        ws.append(np.full(int(same.sum()), d - len(cols)))
    u, v, w = (np.concatenate(x) for x in (us, vs, ws))
    by_pair = np.lexsort((w, v, u))
    u, v, w = u[by_pair], v[by_pair], w[by_pair]
    first = np.ones(len(u), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return len(u), u[first], v[first], w[first]


def test_auxiliary_graph_folds_many_links(monkeypatch):
    # about 1.26 M raw links: the links fold before the last mask is sorted
    pts = np.random.default_rng(71).integers(0, 2, (400, 12)).astype(float)
    folds = []

    def counted(*args):
        folds.append(len(args[0]))
        return fold(*args)

    fold = hamming._fold
    monkeypatch.setattr(hamming, "_fold", counted)
    aux, _trace = build_auxiliary_graph(int_ps(pts), CFG)
    raw, u, v, w = _mask_links(pts)
    assert raw > hamming.BLOCK
    assert len(folds) > 1
    assert np.array_equal(aux.edges["u"], u)
    assert np.array_equal(aux.edges["v"], v)
    assert np.array_equal(aux.edges["w"], w)


@pytest.mark.parametrize("d", [1, 3, 8])
def test_auxiliary_trace_is_one_sort_per_mask(d):
    ps = int_ps(np.random.default_rng(72 + d).integers(0, 3, (40, d)))
    cfg = MpcConfig(space_s=600)
    _aux, trace = build_auxiliary_graph(ps, cfg)
    want = overlay_sorts(ps.n, [bin(mask).count("1") for mask in range(1 << d)], cfg)
    assert trace.per_round == want


def test_auxiliary_small_budget_refuses_first_sort():
    # mask 0 fits in s = 20 words; mask 1's key word does not
    ps = int_ps(np.random.default_rng(5).integers(0, 3, (30, 3)))
    with pytest.raises(CapacityError) as err:
        build_auxiliary_graph(ps, MpcConfig(space_s=20))
    assert str(err.value) == "sort of 30 items needs 24 words on one machine, budget allows 20"


def test_huge_integer_coordinates_are_exact():
    # beyond int64 range: each coordinate keeps its own value
    ps = int_ps([[1e300, 0], [2e300, 0], [3e19, 1], [-3e19, 1]])
    want = total_weight(exact_mst(ps))
    assert want == 4.0
    assert total_weight(hamming_mst(ps, CFG)[0]) == want


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
