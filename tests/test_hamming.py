import numpy as np
import pytest

from mpslc import hamming
from mpslc.core import CapacityError, InputError, Metric, PointSet
from mpslc.hamming import hamming_mst
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


def auxiliary_graph(ps):
    """Every weight class's links, read with labels that separate all
    points, joined and kept at the lightest link per pair: the (u, v, w)
    arrays ascending by (u, v)."""
    ranks, sizes = hamming._validated_int_points(ps)
    n, d = ranks.shape
    labels = np.arange(n)
    popcount = np.array([bin(mask).count("1") for mask in range(1 << d)])
    pairs, weights = [], []
    for t in range(d + 1):
        pairs.append(hamming._class_links(ranks, sizes, np.flatnonzero(popcount == d - t),
                                           labels))
        weights.append(np.full(len(pairs[-1]), t))
    pair, w = np.concatenate(pairs), np.concatenate(weights)
    # the classes come lightest first, so a stable sort keeps the lightest
    order = np.argsort(pair, kind="stable")
    pair, w = pair[order], w[order]
    first = np.ones(len(pair), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    u, v = np.divmod(pair[first], n)
    return u, v, w[first].astype(float)


def _edges(graph):
    return [(int(u), int(v), float(w)) for u, v, w in zip(*graph)]


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
    assert _edges(auxiliary_graph(ps)) == _auxiliary_reference(ps)
    _tree, trace = hamming_mst(ps, CFG)
    assert [r.kind for r in trace.per_round].count("sort") == 4
    assert all(r.kind == "sort" for r in trace.per_round[:4])


def _mask_links(pts, masks=None):
    """Every mask's links, or those of `masks`, from np.unique row ids of
    its projection: the raw link count and the lightest link per pair,
    ascending by (u, v)."""
    n, d = pts.shape
    us, vs, ws = [], [], []
    for mask in range(1 << d) if masks is None else masks:
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
    # a small block: the masks are keyed 6 at a time, and a class's links
    # fold several times before its last mask is read
    monkeypatch.setattr(hamming, "BLOCK", 1200)
    pts = np.random.default_rng(71).integers(0, 2, (200, 8)).astype(float)
    folds = []

    def counted_links(*args):
        folds.append(0)
        return class_links(*args)

    def counted_fold(*args):
        folds[-1] += 1
        return fold(*args)

    class_links, fold = hamming._class_links, hamming._fold
    monkeypatch.setattr(hamming, "_class_links", counted_links)
    monkeypatch.setattr(hamming, "_fold", counted_fold)
    u, v, w = auxiliary_graph(int_ps(pts))
    raw, want_u, want_v, want_w = _mask_links(pts)
    assert raw > hamming.BLOCK
    # every class's last fold is its result; some class folded twice before
    assert len(folds) == 9 and max(folds) > 2
    assert np.array_equal(u, want_u)
    assert np.array_equal(v, want_v)
    assert np.array_equal(w, want_w)


@pytest.mark.parametrize("rows,classes", [
    pytest.param([[0, 0, 0], [1, 1, 1]], [0, 1, 2, 3], id="spans-at-d"),
    # class 1 links only the duplicates, which class 0 joined
    pytest.param([[0, 0], [0, 0], [5, 5]], [0, 1, 2], id="joined-class"),
    pytest.param([[2, 2, 2]] * 5, [0], id="duplicates"),
    pytest.param([[4, 1]], [], id="one-point"),
    pytest.param(np.random.default_rng(73).integers(0, 3, (300, 8)), None, id="random"),
])
def test_no_class_past_the_spanning_one_is_linked(monkeypatch, rows, classes):
    ps = int_ps(rows)
    read = []

    def recorded(ranks, sizes, masks, labels):
        popcount = {bin(int(m)).count("1") for m in masks}
        assert len(popcount) == 1
        read.append(ps.dim - popcount.pop())
        return class_links(ranks, sizes, masks, labels)

    class_links = hamming._class_links
    monkeypatch.setattr(hamming, "_class_links", recorded)
    tree, trace = hamming_mst(ps, CFG)
    heaviest = int(max((w for _, _, w in tree.edges), default=-1))
    assert read == list(range(heaviest + 1))
    # a class runs its connectivity pass only if it joins something
    passes = {r.segment for r in trace.per_round if r.kind == "connectivity"}
    assert len(passes) == len({w for _, _, w in tree.edges})
    if classes is not None:
        assert read == classes
    else:
        assert 0 < heaviest < ps.dim


def _columns(n, d, values):
    """n points whose column j holds exactly values[j] distinct values:
    n - 15 shuffled rows, then exact copies of 5 of them and copies of 10
    more that differ in one column."""
    rng = np.random.default_rng(74 + n + d)
    base = np.stack([rng.permutation(np.arange(n - 15) % k) for k in values], axis=1)
    near, row, col = base[5:15].copy(), np.arange(10), rng.integers(0, d, 10)
    near[row, col] = (near[row, col] + 1) % np.take(values, col)
    return np.concatenate([base, base[:5], near]).astype(float)


@pytest.mark.parametrize("n,d,values,wide", [
    # the position digit takes 8, 9, 16 and 17 bits
    pytest.param(256, 3, [7] * 3, False, id="n256"),
    pytest.param(257, 3, [7] * 3, False, id="n257"),
    pytest.param(65536, 2, [40] * 2, False, id="n65536"),
    pytest.param(65537, 2, [40] * 2, False, id="n65537"),
    # class 0's widest key, 32^11 = 2^55, fills the 55 bits beside 8
    # position bits; with 33 values in one column it does not fit, and the
    # key is the dense id over runs of columns 0-9 and 10
    pytest.param(256, 11, [32] * 11, False, id="fits"),
    pytest.param(256, 11, [33] + [32] * 10, True, id="two-runs"),
    # 24 * 32^10 does not fit beside 9 position bits, but 257 times it
    # fits in 2^63: one run, then its dense id
    pytest.param(257, 11, [24] + [32] * 10, True, id="one-run-dense"),
    # about n values per column: classes 0 and 1 take runs of 7 and 2 columns
    pytest.param(200, 9, [185] * 9, True, id="n-values")])
def test_key_packing_boundaries(monkeypatch, n, d, values, wide):
    pts = _columns(n, d, values)
    ps = int_ps(pts)
    assert hamming._validated_int_points(ps)[1] == values
    _raw, want_u, want_v, want_w = _mask_links(pts)
    # only a key too wide for the position digit takes dense ids
    dense_ids, put = [], np.put_along_axis

    def counted_put(*args, **kwargs):
        dense_ids.append(0)
        return put(*args, **kwargs)

    monkeypatch.setattr(np, "put_along_axis", counted_put)
    u, v, w = auxiliary_graph(ps)
    assert np.array_equal(u, want_u)
    assert np.array_equal(v, want_v)
    assert np.array_equal(w, want_w)
    tree, _trace = hamming_mst(ps, CFG)
    want = kruskal_edges(n, zip(want_u.tolist(), want_v.tolist(), want_w.tolist()))
    assert list(tree.edges) == want
    assert bool(dense_ids) == wide


def test_wide_key_runs_stay_within_64_bits():
    # 14 columns of 256 values at n = 561: a run holds 6 columns, as 561
    # times 256^7 passes 2^63. Rows 0-299 differ in columns 0-6 and agree
    # on columns 7-13, so a run of columns 7-13 led by the dense id of
    # columns 0-6 would wrap and link rows whose ids differ by 256.
    n, d = 561, 14
    pts = np.zeros((n, d), dtype=np.int64)
    pts[:300, :7] = np.random.default_rng(75).integers(0, 256, (300, 7))
    pts[300:556] = np.arange(256)[:, None]
    pts[556:] = pts[:5]
    ps = int_ps(pts)
    ranks, sizes = hamming._validated_int_points(ps)
    assert sizes == [256] * d
    masks = np.array([(1 << d) - 1] + [(1 << d) - 1 - (1 << j) for j in range(d)])
    for class_masks in masks[:1], masks[1:]:
        got = hamming._class_links(ranks, sizes, class_masks, np.arange(n))
        _raw, u, v, _w = _mask_links(pts, class_masks)
        assert np.array_equal(got, u * n + v)


@pytest.mark.parametrize("d", [1, 3, 8])
def test_auxiliary_trace_is_one_sort_per_mask(d):
    ps = int_ps(np.random.default_rng(72 + d).integers(0, 3, (40, d)))
    cfg = MpcConfig(space_s=600)
    _tree, trace = hamming_mst(ps, cfg)
    want = overlay_sorts(ps.n, [bin(mask).count("1") for mask in range(1 << d)], cfg)
    assert trace.per_round[:4] == want
    assert all(r.kind == "connectivity" for r in trace.per_round[4:])


def test_auxiliary_small_budget_refuses_first_sort():
    # mask 0 fits in s = 20 words; mask 1's key word does not
    ps = int_ps(np.random.default_rng(5).integers(0, 3, (30, 3)))
    with pytest.raises(CapacityError) as err:
        hamming_mst(ps, MpcConfig(space_s=20))
    assert str(err.value) == "sort of 30 items needs 24 words on one machine, budget allows 20"


def test_huge_integer_coordinates_are_exact():
    # beyond int64 range: each coordinate keeps its own value
    ps = int_ps([[1e300, 0], [2e300, 0], [3e19, 1], [-3e19, 1]])
    want = total_weight(exact_mst(ps))
    assert want == 4.0
    assert total_weight(hamming_mst(ps, CFG)[0]) == want


def test_auxiliary_path_property():
    ps = integer_points(60, 3, seed=60)
    aux = _edges(auxiliary_graph(ps))
    pts = ps.points.astype(np.int64)
    n = ps.n
    for t in range(0, ps.dim + 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, w in aux:
            if w <= t:
                parent[find(u)] = find(v)
        for i in range(n):
            for j in range(i + 1, n):
                if (pts[i] != pts[j]).sum() <= t:
                    assert find(i) == find(j)


def test_auxiliary_threshold_components_match_distance_graph():
    ps = integer_points(60, 3, seed=61)
    aux = _edges(auxiliary_graph(ps))
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

        aux_comp = comps([(u, v) for u, v, w in aux if w <= t])
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
