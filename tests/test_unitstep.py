import math
import tracemalloc

import numpy as np
import pytest

from mpslc.core import Metric, PointSet, spanning_forest
from mpslc.mpc import EDGE, edge_array
from mpslc.oracle import _row_dists, brute_closest_cross_pair, kruskal_edges, kruskal_points_mst
from mpslc.partition import metric_profile
from mpslc.slc import derive_eps, duplicate_owners
from mpslc import unitstep
from mpslc.unitstep import level_step

from conftest import FLOAT_METRICS, uniform_points


def line_points(values):
    return PointSet(points=np.asarray(values, dtype=float).reshape(-1, 1),
                    metric=Metric.L2)


def singletons(ids):
    return {int(i): int(i) for i in ids}


def run_step(comp_of, level_diam, eps, ps):
    """level_step on one cell holding the reps and labels of a {rep: label}
    dict; the covering comes back as a list."""
    rep_ids = np.asarray(sorted(comp_of), dtype=np.int64)
    labels = np.asarray([comp_of[r] for r in rep_ids], dtype=np.int64)
    cells = np.zeros(len(rep_ids), dtype=np.int64)
    cover, cover_labels, edges = level_step(rep_ids, labels, cells, level_diam, eps, ps)
    return cover.tolist(), cover_labels, edges


def covering(ids, radius, ps):
    """Covering at `radius` from a one-component cell, which emits no edges:
    eps = 1/2 and level_diam = 4 * radius give eps^2 * level_diam = radius."""
    cover, _labels, edges = run_step({int(i): 0 for i in ids}, 4.0 * radius, 0.5, ps)
    assert len(edges) == 0
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


def owner_star(points):
    """The ids that `slc.approximate_mst` hands the level passes, the
    lowest of each point's coordinates, and the weight-0 star that joins
    every other id to its owner."""
    owner = duplicate_owners(points)
    dup = np.flatnonzero(owner != np.arange(len(points)))
    return np.flatnonzero(owner == np.arange(len(points))), edge_array(owner[dup], dup, 0.0)


def test_covering_radius_zero_keeps_lowest_id_per_point():
    # a pass gets the lowest id of each point, and the covering at radius
    # 0 keeps them all, the point 1e-300 from another included
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5], [-0.0, 0.0], [0.0, 1e-300]])
    ps = PointSet(points=pts, metric=Metric.L2)
    owners, _star = owner_star(pts)
    cover, labels, edges = run_step({int(i): 0 for i in owners}, 1.0, 0.0, ps)
    assert len(edges) == 0
    assert cover == [0, 1, 4]
    assert labels.tolist() == [0, 0, 0]


def test_covering_infinite_radius_keeps_lowest_position_per_cell():
    # a 192-d root covering, as on the JL cycles, keys on the cell alone:
    # it keeps the lowest position of every cell, the points aside
    rng = np.random.default_rng(34)
    pts = rng.normal(size=(300, 192)) * 1e3
    cells = rng.integers(0, 40, 300)
    cells[:40] = rng.permutation(40)
    cover = unitstep._covering(pts, cells, math.inf, Metric.L2)
    assert sorted(cover.tolist()) == sorted(int(np.flatnonzero(cells == c)[0]) for c in range(40))


def test_live_equals_distinct_labels_per_cell():
    # a cell is live when it holds two components; with no component
    # across two cells, its lowest and highest labels tell
    rng = np.random.default_rng(35)
    for _ in range(200):
        n_cells = int(rng.integers(1, 30))
        cells = np.concatenate((np.arange(n_cells), rng.integers(0, n_cells, 80)))
        labels = group_labels(cells * 7 + rng.integers(0, rng.integers(1, 4), len(cells)))
        _, first = np.unique(labels, return_index=True)
        want = np.bincount(cells[first], minlength=n_cells) > 1
        assert unitstep._live(labels, cells).tolist() == want.tolist()


def test_unit_step_single_component_no_edges():
    ps = uniform_points(20, 2, seed=8)
    cover, labels, edges = run_step({i: 7 for i in range(20)}, 1.0, 0.25, ps)
    assert len(edges) == 0
    assert set(cover) <= set(range(20))
    assert all(label == 7 for label in labels)


def test_unit_step_two_points_merge():
    ps = line_points([0.0, 1.0])
    cover, labels, edges = run_step(singletons([0, 1]), 4.0, 0.5, ps)
    assert edges.tolist() == [(0, 1, 1.0)]
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
    assert edges.tolist() == [(0, 1, 1.0)]
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
    assert len(edges)
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
    # a root of 600 points grows its bucket shells until one component
    # is left; its edges must equal the oracle's
    ps = uniform_points(600, 2, seed=13)
    _cover, _labels, edges = run_step(singletons(range(600)), math.inf, 0.0, ps)
    want = sorted(round(w, 12) for _, _, w in kruskal_points_mst(ps).edges)
    got = sorted(round(w, 12) for _, _, w in edges)
    assert got == want


def test_unit_step_brute_engine_memory_bounded():
    # d above GRID_MAX_DIM makes a 300-point root cell one bucket, paired
    # in one pass; a one-block distance tensor would need 2 x 300 x 300 x
    # 100 floats
    ps = uniform_points(300, 100, seed=15)
    tracemalloc.start()
    try:
        _cover, _labels, edges = run_step(singletons(range(300)), math.inf, 0.5, ps)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 299
    assert peak < 64 * 2**20


def _level_input(metric, seed, ties, root=False, dim=3):
    """A level's reps, labels and cells: a random subset of a uniform or a
    tie-heavy integer cloud, cut by a coarse grid into cells (one cell at
    the root), with labels that join random groups of points inside each
    cell."""
    rng = np.random.default_rng(seed)
    if ties:
        pts = rng.integers(0, 8, (400, dim)).astype(float) / 8.0
    else:
        pts = rng.uniform(0.0, 1.0, (400, dim))
    ps = PointSet(points=pts, metric=metric)
    rep_ids = np.sort(rng.choice(400, size=300, replace=False))
    coarse = np.floor(pts[rep_ids] * (0.0 if root else 2.0))
    _, cells = np.unique(coarse, axis=0, return_inverse=True)
    group = rng.integers(0, 40, len(rep_ids))
    labels = np.empty(len(rep_ids), dtype=np.int64)
    for key in set(zip(cells.tolist(), group.tolist())):
        mask = (cells == key[0]) & (group == key[1])
        labels[mask] = rep_ids[mask].min()
    return ps, rep_ids, labels, cells


LEVEL_CASES = [pytest.param(metric, ties, level_diam, 3, id=f"{metric}-{ties}-{level_diam}")
               for metric in FLOAT_METRICS for ties in (False, True)
               for level_diam in (0.4, 2.5, math.inf)]
# tied 5-d and 6-d roots: stages of thousands of offsets, the most at
# GRID_MAX_DIM, and under l1 the most stages
LEVEL_CASES += [pytest.param(metric, True, math.inf, dim, id=f"{metric}-True-inf-d{dim}")
                for metric in (Metric.L2, Metric.L1) for dim in (5, 6)]


@pytest.mark.parametrize("metric,ties,level_diam,dim", LEVEL_CASES)
def test_level_step_multi_cell_equals_one_cell_calls(metric, ties, level_diam, dim):
    ps, rep_ids, labels, cells = _level_input(metric, 20, ties, math.isinf(level_diam), dim)
    eps = 0.3
    cover, cover_labels, edges = level_step(rep_ids, labels, cells, level_diam, eps, ps)
    want_cover, want_labels, want_edges = [], [], []
    for c in range(cells.max() + 1):
        inside = cells == c
        one = np.zeros(int(inside.sum()), dtype=np.int64)
        c_cover, c_labels, c_edges = level_step(rep_ids[inside], labels[inside], one,
                                                level_diam, eps, ps)
        want_cover += c_cover.tolist()
        want_labels += c_labels.tolist()
        want_edges += c_edges.tolist()
    order = np.argsort(want_cover)
    assert cover.tolist() == np.asarray(want_cover)[order].tolist()
    assert cover_labels.tolist() == np.asarray(want_labels)[order].tolist()
    assert edges.tolist() == sorted(want_edges, key=lambda e: (e[2], e[0], e[1]))
    assert len(edges), "the case should merge something"


@pytest.mark.parametrize("metric", FLOAT_METRICS)
@pytest.mark.parametrize("eps,level_diam", [
    pytest.param(eps, level_diam, id=f"{eps}-inf" if math.isinf(level_diam) else f"{eps}")
    for level_diam in (2.5, math.inf) for eps in (0.0, 0.3)])
def test_level_step_offset_repetitions_equal_separate_calls(metric, eps, level_diam):
    # two repetitions of one tie-heavy cloud of distinct lattice points in
    # one pass: ids and labels of repetition 1 offset by n, each with its
    # own subset and its own shifted cells, or one cell each at the root.
    # Each gets the edges, covering and labels of its own call: no point
    # joins its copy, at distance 0, in the other repetition
    rng = np.random.default_rng(29)
    n = 400
    sites = np.indices((8, 8, 8)).reshape(3, -1).T
    ps = PointSet(points=sites[rng.permutation(len(sites))[:n]] / 8.0, metric=metric)
    alone, shared = [], []
    for rep, shift in enumerate((0.0, 0.3)):
        ids = np.sort(rng.choice(n, size=300, replace=False))
        _, cells = np.unique(np.floor(ps.points[ids] * 2.0 + shift), axis=0,
                             return_inverse=True)
        if math.isinf(level_diam):
            cells = np.zeros(len(ids), dtype=np.int64)
        group = rng.integers(0, 30, len(ids))
        labels = ids[group_labels(cells * 30 + group)]
        alone.append(level_step(ids, labels, cells, level_diam, eps, ps))
        offset = rep * n, (shared[-1][2].max() + 1 if shared else 0)
        shared.append((ids + offset[0], labels + offset[0], cells + offset[1]))
    ids, labels, cells = (np.concatenate(parts) for parts in zip(*shared))
    cover, cover_labels, edges = level_step(ids, labels, cells, level_diam, eps, ps)
    assert cover.tolist() == alone[0][0].tolist() + (alone[1][0] + n).tolist()
    assert cover_labels.tolist() == alone[0][1].tolist() + (alone[1][1] + n).tolist()
    second = edges["u"] >= n
    assert edges[~second].tolist() == alone[0][2].tolist()
    edges["u"] -= n * second
    edges["v"] -= n * second
    assert edges[second].tolist() == alone[1][2].tolist()


def oracle_level_edges(ps, rep_ids, labels, cells, threshold):
    """Per cell, Kruskal over the cross-component pairs within the
    threshold; chains of weight -1 join each component first."""
    want = []
    for c in range(cells.max() + 1):
        ids = rep_ids[cells == c]
        labs = labels[cells == c]
        graph = []
        for lab in np.unique(labs):
            members = ids[labs == lab]
            graph += [(a, b, -1.0) for a, b in zip(members, members[1:])]
        for i, u in enumerate(ids):
            ws = _row_dists(ps.points[ids[i + 1:]], ps.points[u], ps.metric)
            graph += [(u, v, w) for v, w, lab in zip(ids[i + 1:], ws, labs[i + 1:])
                      if lab != labs[i] and w <= threshold]
        want += [(u, v, w) for u, v, w in kruskal_edges(ps.n, graph) if w >= 0]
    return sorted(want)


def assert_same_edges(got, want):
    got = sorted(got.tolist())
    assert [(u, v) for u, v, _ in got] == [(u, v) for u, v, _ in want]
    np.testing.assert_allclose([w for *_, w in got], [w for *_, w in want],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("metric,ties,level_diam,dim", LEVEL_CASES)
def test_level_step_cells_match_oracle_kruskal(metric, ties, level_diam, dim):
    # the unbounded case is a root of 300 points
    ps, rep_ids, labels, cells = _level_input(metric, 21, ties, math.isinf(level_diam), dim)
    eps = 0.3
    _cover, _labels, edges = level_step(rep_ids, labels, cells, level_diam, eps, ps)
    assert_same_edges(edges, oracle_level_edges(ps, rep_ids, labels, cells,
                                                eps * level_diam))


def group_labels(group):
    """Labels that join the positions of each group, each the group's
    lowest position."""
    first = {}
    for i, g in enumerate(group.tolist()):
        first.setdefault(g, i)
    return np.asarray([first[g] for g in group.tolist()], dtype=np.int64)


def count_pair_distances(monkeypatch):
    """Count the pair distances that level_step computes from here on."""
    seen = [0]
    pair_distances = unitstep.pair_distances

    def counting(pts, u, v, metric):
        seen[0] += len(u)
        return pair_distances(pts, u, v, metric)

    monkeypatch.setattr(unitstep, "pair_distances", counting)
    return seen


@pytest.mark.parametrize("metric", FLOAT_METRICS)
@pytest.mark.parametrize("level_diam", (4.0, math.inf))
def test_level_step_duplicates_pair_only_distinct_points(monkeypatch, metric, level_diam):
    # level 0 of 600 points on the 27 sites of {0, 1, 2}^3 in one cell, as
    # `slc` runs it: the weight-0 star joins every point to its site's
    # lowest id, and the pass over those 27 ids, from their pairs alone,
    # adds the rest of Kruskal's edges over all 600 points
    rng = np.random.default_rng(23)
    pts = rng.integers(0, 3, (600, 3)).astype(float)
    ps = PointSet(points=pts, metric=metric)
    ids = np.arange(600, dtype=np.int64)
    cells = np.zeros(600, dtype=np.int64)
    owners, star = owner_star(pts)
    seen = count_pair_distances(monkeypatch)
    _cover, merged, edges = level_step(owners, owners, cells[owners], level_diam, 0.5, ps)
    assert len(owners) == 27 and seen[0] <= 27 * 26 // 2
    assert_same_edges(np.concatenate((star, edges)),
                      oracle_level_edges(ps, ids, ids, cells, 0.5 * level_diam))
    if math.isinf(level_diam):
        assert len(np.unique(merged)) == 1
        return
    # the same cell with 20 distinct points added, beside a cell of 40
    # copies of one site, lone once they are joined, a cell of 30 distinct
    # points and 5 lone points, in shuffled order: at eps 1/2 and at eps 0,
    # whose covering keeps every id it gets, still the oracle's edges from
    # the distinct pairs, and no duplicate in the covering
    blocks = [np.concatenate((pts, rng.random((20, 3)) * 2.0)), np.full((40, 3), 7.0),
              rng.random((30, 3)) * 2.0 + 10.0] + [np.full((1, 3), 20.0 + k) for k in range(5)]
    order = rng.permutation(sum(map(len, blocks)))
    pts = np.concatenate(blocks)[order]
    cells = np.repeat(np.arange(len(blocks)), list(map(len, blocks)))[order]
    ps = PointSet(points=pts, metric=metric)
    ids = np.arange(len(pts), dtype=np.int64)
    owners, star = owner_star(pts)
    keys = list(map(tuple, np.column_stack((cells, pts)).tolist()))
    lowest = {}
    for i, key in enumerate(keys):
        lowest.setdefault(key, i)
    for eps in (0.5, 0.0):
        seen[0] = 0
        cover, _merged, edges = level_step(owners, owners, cells[owners], level_diam, eps, ps)
        assert_same_edges(np.concatenate((star, edges)),
                          oracle_level_edges(ps, ids, ids, cells, eps * level_diam))
        assert seen[0] <= (27 + 20) * (27 + 19) // 2 + 30 * 29 // 2
        assert all(lowest[keys[i]] == i for i in cover.tolist())
        assert np.isin(np.flatnonzero(cells == 1), cover).tolist() == [True] + [False] * 39
        assert np.isin(np.flatnonzero(cells >= 3), cover).all()
    assert cover.tolist() == sorted(lowest.values())


@pytest.mark.parametrize("metric", FLOAT_METRICS)
def test_level_step_dense_cell_avoids_all_pairs(monkeypatch, metric):
    # 700 points in one cell, with twice the threshold as wide as the
    # points' spread: buckets at the point spacing and their shells give
    # Kruskal's edges from a small share of the 244,650 pairs
    ps = uniform_points(700, 3, seed=24, metric=metric)
    ids = np.arange(700, dtype=np.int64)
    labels = group_labels(np.random.default_rng(24).integers(0, 400, 700))
    cells = np.zeros(700, dtype=np.int64)
    level_diam = 3.0 if metric is Metric.L1 else 1.8
    seen = count_pair_distances(monkeypatch)
    _cover, _merged, edges = level_step(ids, labels, cells, level_diam, 0.3, ps)
    assert 0 < seen[0] < 700 * 699 // 2 // 4
    assert_same_edges(edges, oracle_level_edges(ps, ids, labels, cells, 0.3 * level_diam))


def test_level_step_candidate_cut_keeps_edges(monkeypatch):
    # cutting the candidates to their spanning forest, block after block,
    # leaves the edges, covering and labels as they are
    ps, rep_ids, labels, cells = _level_input(Metric.L2, 22, False)
    whole = level_step(rep_ids, labels, cells, 2.5, 0.3, ps)
    monkeypatch.setattr(unitstep, "_BLOCK_VALUES", 300)
    monkeypatch.setattr(unitstep, "_MAX_KEPT", 50)
    cut = level_step(rep_ids, labels, cells, 2.5, 0.3, ps)
    assert cut[2].tolist() == whole[2].tolist() and len(whole[2]) > 50
    assert cut[0].tolist() == whole[0].tolist()
    assert cut[1].tolist() == whole[1].tolist()


def _random_pool(rng, n_labels, m, weights):
    """m random pairs (lo, hi) over n_labels positions with the given
    weights; some pairs may join a position to itself."""
    u = rng.integers(0, n_labels, m)
    v = rng.integers(0, n_labels, m)
    return edge_array(np.minimum(u, v), np.maximum(u, v), weights)


def _plain_kruskal(pairs, labels):
    """One lexsort in (w, lo, hi) order and one spanning forest."""
    order = np.lexsort((pairs["v"], pairs["u"], pairs["w"]))
    comps, inv = np.unique(labels, return_inverse=True)
    taken, roots, _phases = spanning_forest(inv[pairs["u"][order]], inv[pairs["v"][order]],
                                            len(comps))
    return pairs[order[taken]], comps[roots[inv]]


def _kruskal_pools():
    rng = np.random.default_rng(27)
    joined = group_labels(rng.integers(0, 30, 120))
    ties = _random_pool(rng, 120, 3000, rng.integers(0, 6, 3000) / 4.0)
    return {
        "equal-weights": (_random_pool(rng, 120, 3000, 1.0), np.arange(120)),
        "pivot-in-ties": (ties, np.arange(120)),
        "duplicates": (np.concatenate((ties, ties[::3], ties[:500])), np.arange(120)),
        "joined-labels": (_random_pool(rng, 120, 3000, rng.random(3000)), joined),
        "joined-ties": (ties, joined),
        "small": (_random_pool(rng, 120, 200, rng.random(200)), np.arange(120)),
        "empty": (_random_pool(rng, 120, 0, 1.0), joined),
    }


@pytest.mark.parametrize("name", list(_kruskal_pools()))
def test_filter_kruskal_equals_one_sort(name):
    # Filter-Kruskal sorts a weight prefix at a time; the edges, their
    # order and the labels must be those of one sort of the whole pool
    pairs, labels = _kruskal_pools()[name]
    comps = len(np.unique(labels))
    assert (len(pairs) > 2 * unitstep._FILTER_PER_COMPONENT * comps) == \
        (name not in ("small", "empty"))
    got, merged = unitstep._kruskal(pairs, labels)
    want, want_merged = _plain_kruskal(pairs, labels)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert merged.tolist() == want_merged.tolist()
    assert len(got) == comps - len(np.unique(merged))
    # the pairs at some indices alone, as a level pass takes those within a bound
    among = np.flatnonzero(np.random.default_rng(30).random(len(pairs)) < 0.7)
    got, merged = unitstep._kruskal(pairs, labels, among)
    want, want_merged = _plain_kruskal(pairs[among], labels)
    assert got.tolist() == want.tolist()
    assert merged.tolist() == want_merged.tolist()


def test_level_step_small_cells_beside_dense_cell_match_oracle(monkeypatch):
    # 60 cells of 2 to 5 points, each paired whole in shell 1, and one
    # 600-point cell that keeps its shells, in one level; small blocks
    # and cuts leave the edges as they are
    rng = np.random.default_rng(28)
    sizes = np.concatenate(([600], rng.integers(2, 6, 60)))
    cells = np.repeat(np.arange(len(sizes)), sizes)
    centres = np.column_stack((np.arange(len(sizes)) * 3.0, np.zeros((len(sizes), 2))))
    pts = centres[cells] + rng.uniform(0.0, np.where(cells == 0, 1.0, 0.4)[:, None],
                                       (len(cells), 3))
    ps = PointSet(points=pts, metric=Metric.L2)
    ids = np.arange(len(cells), dtype=np.int64)
    labels = group_labels(cells * 1000 + rng.integers(0, 300, len(cells)))
    level_diam, eps = 0.5, 0.6
    grid = unitstep._Grid(pts, cells, eps * level_diam, Metric.L2)
    assert grid.reach > 1
    assert not grid.whole[0] and grid.whole[1:].all()
    _cover, _merged, edges = level_step(ids, labels, cells, level_diam, eps, ps)
    assert_same_edges(edges, oracle_level_edges(ps, ids, labels, cells, eps * level_diam))
    assert 0 < np.sum(cells[edges["u"]] == 0) < len(edges)
    monkeypatch.setattr(unitstep, "_BLOCK_VALUES", 60)
    monkeypatch.setattr(unitstep, "_MAX_KEPT", 50)
    assert level_step(ids, labels, cells, level_diam, eps, ps)[2].tolist() == edges.tolist()


def test_level_step_wide_whole_cells_match_oracle(monkeypatch):
    # 60 cells of 3 to 6 singletons spread over unit cubes, each paired
    # whole in shell 1, beside a settled 1000-point cell that keeps the
    # point spacing small: some whole cells hold buckets more than `reach`
    # apart, with the threshold below their width, and every pair of a
    # whole cell is measured at most once
    rng = np.random.default_rng(30)
    sizes = np.concatenate(([1000], rng.integers(3, 7, 60)))
    cells = np.repeat(np.arange(len(sizes)), sizes)
    centres = np.column_stack((np.arange(len(sizes)) * 3.0, np.zeros((len(sizes), 2))))
    pts = centres[cells] + rng.uniform(0.0, np.where(cells == 0, 0.05, 1.0)[:, None],
                                       (len(cells), 3))
    ps = PointSet(points=pts, metric=Metric.L2)
    ids = np.arange(len(cells), dtype=np.int64)
    labels = np.where(cells == 0, 0, ids)
    level_diam, eps = 0.5, 0.7
    threshold = eps * level_diam
    grid = unitstep._Grid(pts, cells, threshold, Metric.L2)
    assert grid.reach > 1
    assert not grid.whole[0] and grid.whole[1:].all()
    low = np.full((len(sizes), 3), np.inf)
    np.minimum.at(low, cells, pts)
    far = np.floor((pts - low[cells]) / grid.pitch).max(axis=1) > grid.reach
    assert far[cells > 0].any() and grid.reach * grid.pitch > threshold
    seen = count_pair_distances(monkeypatch)
    _cover, _merged, edges = level_step(ids, labels, cells, level_diam, eps, ps)
    assert 0 < seen[0] <= np.sum(sizes[1:] * (sizes[1:] - 1) // 2)
    assert_same_edges(edges, oracle_level_edges(ps, ids, labels, cells, threshold))
    monkeypatch.setattr(unitstep, "_BLOCK_VALUES", 60)
    monkeypatch.setattr(unitstep, "_MAX_KEPT", 50)
    assert level_step(ids, labels, cells, level_diam, eps, ps)[2].tolist() == edges.tolist()


@pytest.mark.parametrize("duplicates", (False, True))
def test_level_step_settled_level_builds_no_grid(monkeypatch, duplicates):
    # every cell holds one component: no grid, no pair distance, no edge
    rng = np.random.default_rng(31)
    cells = np.repeat(np.arange(40), rng.integers(1, 30, 40))
    pts = cells[:, None] * 5.0 + rng.uniform(0.0, 1.0, (len(cells), 3))
    if duplicates:
        pts, cells = np.repeat(pts, 2, axis=0), np.repeat(cells, 2)
    ps = PointSet(points=pts, metric=Metric.L2)
    ids = np.arange(len(cells), dtype=np.int64)
    labels = group_labels(cells)
    grids = [0]
    init = unitstep._Grid.__init__

    def counting(self, *args):
        grids[0] += 1
        init(self, *args)

    monkeypatch.setattr(unitstep._Grid, "__init__", counting)
    seen = count_pair_distances(monkeypatch)
    cover, cover_labels, edges = level_step(ids, labels, cells, 4.0, 0.5, ps)
    assert grids[0] == 0 and seen[0] == 0 and len(edges) == 0
    assert cover_labels.tolist() == labels[cover].tolist()


@pytest.mark.parametrize("side", (4, 16))
def test_level_step_practical_level_visits_two_shells(monkeypatch, side):
    # a level at practical constants: 1000 points in cells of under 50
    # points each (side^3 cubes, the level diameter their diagonal), eps
    # about 0.8, so the threshold spans several buckets at the point
    # spacing; cells this small are paired whole in shell 1
    ps = uniform_points(1000, 3, seed=29)
    cube = np.floor(ps.points * side).astype(np.int64) @ [side * side, side, 1]
    _, cells = np.unique(cube, return_inverse=True)
    assert np.bincount(cells).max() < 50
    ids = np.arange(1000, dtype=np.int64)
    labels = group_labels(cells * 100 + np.random.default_rng(29).integers(0, 12, 1000))
    level_diam, eps = math.sqrt(3) / side, 0.84
    shells = [0]
    links = unitstep._Grid.links

    def counting(self, *args):
        shells[0] += 1
        return links(self, *args)

    monkeypatch.setattr(unitstep._Grid, "links", counting)
    _cover, _merged, edges = level_step(ids, labels, cells, level_diam, eps, ps)
    assert 1 <= shells[0] <= 2
    assert_same_edges(edges, oracle_level_edges(ps, ids, labels, cells, eps * level_diam))


def test_level_step_bounded_level_memory_bounded():
    # one 20k-point cell at the theorem eps: all pairs would be 2e8 pairs,
    # the neighbouring buckets a few per point
    n = 20_000
    ps = uniform_points(n, 3, seed=16)
    eps = derive_eps(0.5, levels=15, b=3.0, c1=1.0, c2=1.0)
    level_diam = math.sqrt(3.0)
    ids = np.arange(n, dtype=np.int64)
    tracemalloc.start()
    try:
        cover, _labels, edges = level_step(ids, ids, np.zeros(n, dtype=np.int64),
                                           level_diam, eps, ps)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) and all(w <= eps * level_diam for _u, _v, w in edges)
    assert len(cover) == n
    assert peak < 16 * 2**20


def clustered_points(n, metric, seed=25):
    """n points in 8 Gaussian clusters of sd 0.01 around uniform centres."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, (8, 3))
    pts = centres[rng.integers(0, 8, n)] + rng.normal(0.0, 0.01, (n, 3))
    return PointSet(points=pts, metric=metric)


def test_level_step_clustered_root_memory_bounded():
    # the root's shells reach from cluster to cluster: the pairs between
    # clusters are pooled and cut in blocks, never held at once
    n = 3000
    ps = clustered_points(n, Metric.L2)
    ids = np.arange(n, dtype=np.int64)
    tracemalloc.start()
    try:
        _cover, merged, edges = level_step(ids, ids, np.zeros(n, dtype=np.int64),
                                           math.inf, 0.5, ps)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == n - 1 and len(np.unique(merged)) == 1
    assert peak < 128 * 2**20


@pytest.mark.parametrize("metric", FLOAT_METRICS)
def test_level_step_clustered_root_matches_oracle(metric):
    n = 1000
    ps = clustered_points(n, metric)
    ids = np.arange(n, dtype=np.int64)
    cells = np.zeros(n, dtype=np.int64)
    _cover, _merged, edges = level_step(ids, ids, cells, math.inf, 0.5, ps)
    assert_same_edges(edges, oracle_level_edges(ps, ids, ids, cells, math.inf))


@pytest.mark.parametrize("metric", FLOAT_METRICS)
def test_level_step_tied_root_breaks_ties_by_ids(metric):
    # 300 integer points in {0..3}^6 tie on most distances; among the
    # many minimum trees the root must return Kruskal's in (w, lo, hi)
    # order
    pts = np.random.default_rng(26).integers(0, 4, (300, 6)).astype(float)
    ps = PointSet(points=pts, metric=metric)
    ids = np.arange(300, dtype=np.int64)
    cells = np.zeros(300, dtype=np.int64)
    _cover, _merged, edges = level_step(ids, ids, cells, math.inf, 0.5, ps)
    assert_same_edges(edges, oracle_level_edges(ps, ids, ids, cells, math.inf))


def _half_cube(lim, dim):
    """The offsets in [-lim, lim]^dim that are zero or whose first nonzero
    coordinate is positive."""
    offs = np.indices((2 * lim + 1,) * dim).reshape(dim, -1).T - lim
    first = offs[np.arange(len(offs)), np.argmax(offs != 0, axis=1)]
    return offs[first >= 0]


def _keys(offs, lim):
    """One sorted integer per offset row in [-lim, lim]^dim."""
    radix = (2 * lim + 1) ** np.arange(offs.shape[1], dtype=np.int64)
    return np.sort((offs.astype(np.int64) + lim) @ radix)


def _gap_below(offs, metric, r):
    """Whether each offset's gap, the metric norm of max(|o| - 1, 0), is
    below r - 1/2, in integers: 4 |t|^2 < (2 r - 1)^2 under l2."""
    t = np.maximum(np.abs(offs) - 1, 0)
    if metric is Metric.L1:
        return t.sum(axis=1) < r
    if metric is Metric.L2:
        return 4 * (t * t).sum(axis=1) < (2 * r - 1) ** 2
    return t.max(axis=1) < r


@pytest.mark.parametrize("metric", FLOAT_METRICS)
@pytest.mark.parametrize("dim", range(1, 7))
def test_stages_partition_offsets_by_metric_gap(metric, dim):
    # each offset of a half cube lies in exactly one stage
    lim = 2
    cube = _half_cube(lim, dim)
    stages = [unitstep._half_shell(r, lim, dim, metric) for r in range(1, dim * lim + 2)]
    assert np.array_equal(_keys(np.concatenate(stages), lim), _keys(cube, lim))
    for r in range(1, 6):
        cube = _half_cube(r, dim)
        # the stages up to r hold every offset with gap below r - 1/2, once
        near = np.concatenate([unitstep._half_shell(s, r, dim, metric) for s in range(1, r + 1)])
        assert np.array_equal(_keys(near, r), _keys(cube[_gap_below(cube, metric, r)], r))
        # under linf stage r is the Chebyshev shell r; stage 1, every
        # offset of at most 1, is that shell under every metric
        if metric is Metric.LINF or r == 1:
            shell = cube if r == 1 else cube[np.abs(cube).max(axis=1) == r]
            assert np.array_equal(_keys(unitstep._half_shell(r, r, dim, metric), r),
                                  _keys(shell, r))


@pytest.mark.parametrize("root", (False, True))
def test_level_step_lone_points_skip_the_pass(monkeypatch, root):
    # a level of lone points: nothing can merge or leave the covering, so
    # its inputs come back as they are and neither pass runs
    ps = uniform_points(60, 3, seed=32)
    ids = np.arange(0, 60, 3, dtype=np.int64)[:1 if root else None]
    labels = ids.copy()
    cells = np.random.default_rng(32).permutation(len(ids))
    calls = []
    for name in ("_merge_distinct", "_covering"):
        monkeypatch.setattr(unitstep, name, lambda *args, name=name: calls.append(name))
    cover, cover_labels, edges = level_step(ids, labels, cells, math.inf if root else 0.5,
                                            0.5, ps)
    assert calls == []
    assert cover.tolist() == ids.tolist() and cover_labels.tolist() == labels.tolist()
    assert edges.dtype == EDGE and len(edges) == 0


@pytest.mark.parametrize("metric", FLOAT_METRICS)
@pytest.mark.parametrize("eps", (0.0, 0.5))
def test_level_step_lone_points_beside_shared_cells(metric, eps):
    # lone points between cells of 2 to 8 distinct points on a lattice, so
    # with ties: the edges are the oracle's, and the covering and its
    # labels are those of one pass over every cell of the level
    rng = np.random.default_rng(33)
    sizes = np.where(rng.random(90) < 0.5, 1, rng.integers(2, 9, 90))
    cells = rng.permutation(np.repeat(np.arange(90), sizes))
    # the k-th point of a cell takes the k-th site of the cell's own shuffle
    rank = np.empty(len(cells), dtype=np.int64)
    rank[np.argsort(cells, kind="stable")] = unitstep._ranks(sizes)
    shuffles = rng.permuted(np.tile(np.arange(27), (90, 1)), axis=1)
    sites = np.indices((3, 3, 3)).reshape(3, -1).T
    pts = cells[:, None] * 3.0 + sites[shuffles[cells, rank]] * 0.25
    ps = PointSet(points=pts, metric=metric)
    ids = np.arange(len(cells), dtype=np.int64)
    labels = group_labels(cells * 10 + rng.integers(0, 3, len(cells)))
    level_diam = 2.0
    cover, cover_labels, edges = level_step(ids, labels, cells, level_diam, eps, ps)
    threshold = eps * level_diam
    assert_same_edges(edges, oracle_level_edges(ps, ids, labels, cells, threshold))
    assert len(np.unique(pts, axis=0)) == len(pts)
    # one pass over every cell: the lowest id per cell and key, and the
    # input labels joined by the oracle's edges, each set to its lowest
    radius = eps * eps * level_diam
    keys = np.floor(pts / (radius / metric_profile(metric, 3)[0])) if radius else pts
    first = {}
    for i, key in enumerate(map(tuple, np.column_stack((cells, keys)).tolist())):
        first.setdefault(key, i)
    whole = np.sort(list(first.values()))
    root = {int(lab): int(lab) for lab in labels}

    def find(lab):
        while root[lab] != lab:
            lab = root[lab]
        return lab

    for u, v, _w in oracle_level_edges(ps, ids, labels, cells, threshold):
        a, b = sorted((find(int(labels[u])), find(int(labels[v]))))
        root[b] = a
    merged = np.asarray([find(int(lab)) for lab in labels])
    assert cover.tolist() == whole.tolist()
    assert cover_labels.tolist() == merged[whole].tolist()


def shifted_points(dim, seed):
    """l2 points 2^20 from the origin in two groups 0.5 apart in every
    coordinate, so a cell is wide and its nearest pairs close: 120 with
    noise of 1e-3, 100 on a lattice of step 2^-10, 20 lattice neighbours
    sqrt(2) 2^-10 away (a tie with the lattice pairs one diagonal apart),
    and exact duplicates of 15 noise and 15 lattice points."""
    rng = np.random.default_rng(seed)
    noise = rng.uniform(0.0, 1e-3, (120, dim)) + 0.5 * (rng.random((120, 1)) < 0.5)
    lattice = (rng.integers(0, 3, (100, dim)) * 2.0 ** -10
               + 0.5 * (rng.random((100, 1)) < 0.5))
    step = np.zeros(dim)
    step[:2] = 2.0 ** -10
    pts = np.concatenate((noise, lattice, lattice[:20] + step, noise[:15], lattice[:15]))
    return PointSet(points=pts[rng.permutation(len(pts))] + 2.0 ** 20, metric=Metric.L2)


@pytest.mark.parametrize("dim", (8, 64))
@pytest.mark.parametrize("bounded", (True, False))
def test_level_step_gram_bound_on_shifted_points(monkeypatch, dim, bounded):
    # above GRID_MAX_DIM an l2 level measures only the pairs its Gram
    # lower bound admits. Far from the origin, with ties and duplicates,
    # at the root and on a bounded level of three cells whose threshold
    # is the tied distance, the edges are still the oracle's
    ps = shifted_points(dim, seed=34 + dim)
    n = ps.n
    ids = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(dim)
    tie = math.sqrt(2.0) * 2.0 ** -10
    # eps = 1/2 makes the threshold eps * level_diam the tie exactly
    level_diam = 2.0 * tie if bounded else math.inf
    cells = rng.integers(0, 3, n) if bounded else np.zeros(n, dtype=np.int64)
    labels = group_labels(cells * 1000 + rng.integers(0, 200, n))
    seen = count_pair_distances(monkeypatch)
    _cover, _merged, edges = level_step(ids, labels, cells, level_diam, 0.5, ps)
    assert_same_edges(edges, oracle_level_edges(ps, ids, labels, cells, 0.5 * level_diam))
    sizes = np.bincount(cells)
    assert 0 < seen[0] < np.sum(sizes * (sizes - 1) // 2) // 4
    assert 0.0 in edges["w"].tolist() and (tie in edges["w"].tolist() or not bounded)
    # blocks of a few rows that cross cell ends, and candidate cuts, give
    # the same edges
    monkeypatch.setattr(unitstep, "_BLOCK_VALUES", 300)
    monkeypatch.setattr(unitstep, "_MAX_KEPT", 50)
    assert level_step(ids, labels, cells, level_diam, 0.5, ps)[2].tolist() == edges.tolist()


def test_level_step_gram_root_memory_bounded():
    # a 5000-point root at d = 64: one m x m Gram array would take 200 MB
    n = 5000
    ps = uniform_points(n, 64, seed=35)
    ids = np.arange(n, dtype=np.int64)
    tracemalloc.start()
    try:
        _cover, merged, edges = level_step(ids, ids, np.zeros(n, dtype=np.int64),
                                           math.inf, 0.5, ps)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == n - 1 and len(np.unique(merged)) == 1
    assert peak < 64 * 2**20
