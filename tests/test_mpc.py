import json

import numpy as np
import pytest

from mpslc.core import CapacityError, InputError
from mpslc.mpc import (
    MpcConfig,
    SpanningTree,
    WeightedEdgeList,
    boruvka_mst,
    connected_components,
    distributed_sort,
    round_bound,
    run_level,
    spread,
)
from mpslc.oracle import kruskal_edges

from conftest import overlay_sorts


def test_run_level_one_small_job():
    cfg = MpcConfig(space_s=120)
    stats = run_level([30], cfg)
    assert stats.machines_used == 1
    assert stats.max_words_on_any_machine <= cfg.space_s


def test_run_level_six_third_size_jobs():
    s = 300
    cfg = MpcConfig(space_s=s)
    stats = run_level([s // 3] * 6, cfg)
    assert stats.machines_used <= 3 * (2 * s) / s + 1
    assert stats.machines_used == 3
    assert stats.max_words_on_any_machine <= s


def test_run_level_rejects_oversized_job():
    cfg = MpcConfig(space_s=90)
    with pytest.raises(CapacityError):
        run_level([31], cfg)


def test_run_level_replay_deterministic():
    rng = np.random.default_rng(0)
    sizes = rng.integers(1, 40, size=100)
    cfg = MpcConfig(space_s=128)
    assert run_level(sizes, cfg) == run_level(sizes, cfg)


def test_run_level_machine_bound_formula():
    rng = np.random.default_rng(1)
    cfg = MpcConfig(space_s=300)
    for _ in range(20):
        stats = run_level(rng.integers(1, 100, size=30), cfg)
        assert stats.machines_used <= 3 * stats.input_words / cfg.space_s + 1


def _packing_loop(sizes, cfg):
    """Reference packing, one job at a time: the first machine that holds
    at most s/3 words takes the job; a machine opens when none does.
    Returns (machines, peak words), or None where the input is refused."""
    cap = cfg.space_s // 3
    used, peak = [], []
    for size in sizes:
        if size > cap:
            return None
        k = next((i for i, u in enumerate(used) if u <= cap), None)
        if k is None:
            used.append(0)
            peak.append(0)
            k = len(used) - 1
        used[k] += size
        peak[k] = max(peak[k], size)
    return len(used), max((u + p for u, p in zip(used, peak)), default=0)


def test_run_level_packing_matches_first_fit_loop():
    rng = np.random.default_rng(6)
    cfg = MpcConfig(space_s=300)
    cap = cfg.space_s // 3
    refused = 0
    for _ in range(300):
        sizes = rng.choice([1, 7, 30, cap - 1, cap, cap + 1], size=rng.integers(0, 16),
                           p=[0.2, 0.2, 0.2, 0.15, 0.2, 0.05])
        want = _packing_loop(sizes.tolist(), cfg)
        if want is None:
            refused += 1
            with pytest.raises(CapacityError):
                run_level(sizes, cfg)
            continue
        stats = run_level(sizes, cfg)
        assert (stats.machines_used, stats.max_words_on_any_machine) == want
        assert stats.total_messages_words == stats.input_words == int(sizes.sum())
        assert stats.kind == "level"
    assert 0 < refused < 300


def test_spread_deals_out_a_third_of_s_per_machine():
    cfg = MpcConfig(space_s=300)
    assert spread(0, cfg) == (1, 0)
    assert spread(100, cfg) == (1, 100)
    assert spread(101, cfg) == (2, 100)
    assert spread(1000, cfg) == (10, 100)


def test_edge_list_build_dedups_min():
    g = WeightedEdgeList.build(3, [(1, 0, 5.0), (0, 1, 2.0), (1, 2, 1.0)])
    assert g.edges.tolist() == [(0, 1, 2.0), (1, 2, 1.0)]


def test_edge_list_validation():
    with pytest.raises(InputError):
        WeightedEdgeList(n_vertices=2, edges=((0, 0, 1.0),))
    with pytest.raises(InputError):
        WeightedEdgeList(n_vertices=2, edges=((0, 1, -1.0),))
    with pytest.raises(InputError, match=r"\(0,1\) is a duplicate"):
        WeightedEdgeList(n_vertices=3, edges=((0, 1, 1.0), (0, 1, 2.0)))
    with pytest.raises(InputError, match=r"\(0,2\) is a duplicate or out of \(u, v\) order"):
        WeightedEdgeList(n_vertices=3, edges=((1, 2, 1.0), (0, 2, 2.0)))


def _build_reference(raw):
    """The lightest weight per unordered pair, self-loops dropped, ascending
    by (u, v); on tied weights the first one listed."""
    best = {}
    for u, v, w in raw:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in best or w < best[key]:
            best[key] = w
    return [(u, v, float(best[(u, v)])) for u, v in sorted(best)]


def test_edge_list_build_matches_dict_reference():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = 1 + trial % 9
        m = int(rng.integers(0, 3 * n + 1))
        ends = rng.integers(0, n, (m, 2)).tolist()
        # few distinct weights, so repeated pairs tie as well as differ
        weights = (rng.integers(0, 4, m) / 2).tolist()
        raw = [(u, v, w) for (u, v), w in zip(ends, weights)]
        g = WeightedEdgeList.build(n, raw)
        got = [(int(u), int(v), float(w)) for u, v, w in g.edges]
        assert got == _build_reference(raw), raw
    assert len(WeightedEdgeList.build(1, []).edges) == 0
    assert len(WeightedEdgeList.build(1, [(0, 0, 2.0)]).edges) == 0


def test_edge_list_rejects_nan_weights():
    nan = float("nan")
    with pytest.raises(InputError):
        WeightedEdgeList(n_vertices=2, edges=((0, 1, nan),))
    for raw in ([(0, 1, 1.0), (0, 1, nan)], [(1, 0, nan), (0, 1, 1.0)]):
        with pytest.raises(InputError):
            WeightedEdgeList.build(2, raw)


def test_spanning_tree_rejects_cycles():
    with pytest.raises(InputError, match=r"\(0,2\) closes a cycle"):
        SpanningTree(n_vertices=3, edges=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))


@pytest.mark.parametrize("edge", [(0, 3, 1.0), (-1, 2, 1.0), (7, 9, 1.0)])
def test_spanning_tree_rejects_endpoint_outside_vertex_range(edge):
    with pytest.raises(InputError, match="vertex range"):
        SpanningTree(n_vertices=3, edges=((0, 1, 1.0), edge))


def test_boruvka_path_graph():
    g = WeightedEdgeList.build(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    tree, trace = boruvka_mst(g, MpcConfig(space_s=256))
    assert set((u, v) for u, v, _ in tree.edges) == {(0, 1), (1, 2), (2, 3)}
    assert trace.rounds <= round_bound(4)


def test_boruvka_triangle_cycle_property():
    g = WeightedEdgeList.build(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    tree, _ = boruvka_mst(g, MpcConfig(space_s=256))
    assert sorted(w for _, _, w in tree.edges) == [1.0, 2.0]


def test_boruvka_matches_kruskal_on_random_graph():
    rng = np.random.default_rng(3)
    n = 500
    edges = []
    seen = set()
    for _ in range(2500):
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, float(rng.uniform())))
    g = WeightedEdgeList.build(n, edges)
    cfg = MpcConfig(space_s=4096)
    tree, trace = boruvka_mst(g, cfg)
    want = kruskal_edges(n, g.edges)
    assert sorted(tree.edges) == sorted(want)
    assert trace.rounds <= round_bound(n)
    assert trace.max_words() <= cfg.space_s


def test_boruvka_equal_weights_no_cycle():
    g = WeightedEdgeList.build(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                   (0, 3, 1.0), (0, 2, 1.0), (1, 3, 1.0)])
    tree, _ = boruvka_mst(g, MpcConfig(space_s=256))
    assert len(tree.edges) == 3
    assert sorted(tree.edges) == sorted(kruskal_edges(4, g.edges))


def test_boruvka_disconnected_forest():
    g = WeightedEdgeList.build(5, [(0, 1, 1.0), (2, 3, 1.0)])
    tree, _ = boruvka_mst(g, MpcConfig(space_s=256))
    assert tree.n_components == 3


def test_connected_components_two_triangles():
    g = WeightedEdgeList.build(6, [(0, 1, 0), (1, 2, 0), (0, 2, 0),
                                   (3, 4, 0), (4, 5, 0), (3, 5, 0)])
    labels, trace = connected_components(g, MpcConfig(space_s=256))
    assert len(set(labels.tolist())) == 2
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[3] == labels[4] == labels[5] == 3
    assert trace.rounds <= round_bound(6)


def test_connected_components_cycle():
    n = 64
    g = WeightedEdgeList.build(n, [(i, (i + 1) % n, 0) for i in range(n)])
    labels, trace = connected_components(g, MpcConfig(space_s=2048))
    assert set(labels.tolist()) == {0}
    assert trace.rounds <= round_bound(n)


def test_connected_components_random_vs_union_find():
    rng = np.random.default_rng(4)
    n = 300
    edges = {(min(u, v), max(u, v)) for u, v in rng.integers(0, n, size=(200, 2))
             if u != v}
    g = WeightedEdgeList.build(n, [(u, v, 0) for u, v in edges])
    labels, _ = connected_components(g, MpcConfig(space_s=4096))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    want = {}
    for i in range(n):
        want.setdefault(find(i), []).append(i)
    for block in want.values():
        assert len({labels[i] for i in block}) == 1
        assert labels[block[0]] == min(block)


def test_sort_accounts_four_rounds():
    # 4 items of one key word and an id: 8 words, one machine
    trace = distributed_sort(4, 1, MpcConfig(space_s=256))
    assert trace.rounds == 4
    assert [r.kind for r in trace.per_round] == ["sort"] * 4
    assert [(r.machines_used, r.max_words_on_any_machine, r.total_messages_words)
            for r in trace.per_round] == [(1, 8, 8), (1, 8, 0), (1, 16, 8), (1, 8, 8)]
    # an empty key leaves the ids alone
    assert distributed_sort(5, 0, MpcConfig(space_s=256)).per_round[0].input_words == 5


def test_sort_large_input_within_budget():
    cfg = MpcConfig(space_s=65536)
    trace = distributed_sort(100_000, 1, cfg)
    assert trace.rounds <= 4
    assert trace.max_words() <= cfg.space_s
    assert trace.per_round[0].machines_used == 10  # 200,000 words at s/3 each


def test_sort_split_round_over_budget_raises_capacity_error():
    # 30 items of one key word and an id at s = 20: 10 machines of 6 words,
    # and the split round holds 6 + 2 * 9 = 24 words on each
    with pytest.raises(CapacityError, match="needs 24 words on one machine, budget allows 20"):
        distributed_sort(30, 1, MpcConfig(space_s=20))


def test_concurrent_sorts_are_one_phase():
    # mixed key lengths in one call: the overlay of one sort per length,
    # spread over several machines each, with plain Python ints
    cfg = MpcConfig(space_s=60)
    keys = [0, 3, 1, 2, 1]
    trace = distributed_sort(40, keys, cfg)
    assert trace.per_round == overlay_sorts(40, keys, cfg)
    assert trace.per_round[0].machines_used > len(keys)
    assert all(type(v) is int for r in trace.per_round for v in vars(r).values()
               if not isinstance(v, str))
    # at n = 30 and s = 26 the key-2 sort needs 30 words and the key-3
    # sort 36; the key-3 sort comes first in the given order
    with pytest.raises(CapacityError) as err:
        distributed_sort(30, [0, 3, 1, 2], MpcConfig(space_s=26))
    assert str(err.value) == "sort of 30 items needs 36 words on one machine, budget allows 26"
    distributed_sort(30, [0, 1], MpcConfig(space_s=26))


def test_trace_json_lines_schema():
    g = WeightedEdgeList.build(3, [(0, 1, 1.0), (1, 2, 2.0)])
    _, trace = boruvka_mst(g, MpcConfig(space_s=256))
    lines = trace.to_json_lines().strip().splitlines()
    assert len(lines) == trace.rounds
    for i, line in enumerate(lines):
        obj = json.loads(line)
        assert set(obj) == {"round", "machines_used", "max_words_on_any_machine",
                            "total_messages_words", "input_words", "kind", "segment"}
        assert obj["round"] == i
        assert obj["kind"] == trace.per_round[i].kind == "boruvka"


def test_mpc_config_validation():
    with pytest.raises(InputError):
        MpcConfig(space_s=3)
