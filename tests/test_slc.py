import math
import warnings

import numpy as np
import pytest

from mpslc import slc
from mpslc.core import (
    CapacityError,
    InputError,
    Metric,
    PointSet,
    Seed,
    UnsupportedMetricError,
    derive_seed,
)
from mpslc.mpc import MpcConfig, SpanningTree, round_bound
from mpslc.oracle import exact_mst, exhaustive_slc
from mpslc.partition import base_cell_coords, coords_at_level, sample_partition
from mpslc.unitstep import level_step
from mpslc.slc import (
    SlcParams,
    approximate_mst,
    derive_eps,
    duplicate_owners,
    k_slc_from_mst,
    verify_per_edge_guarantee,
)

from conftest import FLOAT_METRICS, total_weight, uniform_points


def chain_with_gap(n, gap=100.0):
    xs = list(np.arange(n - 1, dtype=float)) + [n - 2 + gap]
    return PointSet(points=np.asarray(xs).reshape(-1, 1), metric=Metric.L2)


def test_derive_eps_examples():
    assert derive_eps(3.0, 1, 1.0, 1.0, 1.0) == 0.5
    assert derive_eps(0.6, 5, 4.0, 1.0, 1.0) == pytest.approx(0.005)


def test_derive_eps_homogeneous_in_eta():
    assert derive_eps(1.0, 4, 2.0, 1.0, 1.0) * 2 == derive_eps(2.0, 4, 2.0, 1.0, 1.0)


def test_derive_eps_warns_above_three():
    with pytest.warns(UserWarning):
        derive_eps(3.5, 2, 1.0, 1.0, 1.0)


def test_derive_eps_rejects_nonpositive():
    with pytest.raises(InputError):
        derive_eps(0.0, 1, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("at,name", enumerate(["eta", "levels", "b", "c1", "c2"]))
def test_derive_eps_names_a_nan_parameter(at, name):
    args = [1.0, 1, 1.0, 1.0, 1.0]
    args[at] = math.nan
    with pytest.raises(InputError, match=f"^{name} = nan must be positive$"):
        derive_eps(*args)


def test_params_reject_inconsistent_eps():
    # eps is derived from eta, levels, b_cut, c1 and c2 and cannot be passed
    ps = uniform_points(32, 2, seed=1)
    good = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(1))
    assert good.eps == derive_eps(good.eta, good.partition.levels,
                                  good.partition.b_cut, good.c1, good.c2)
    with pytest.raises(TypeError):
        SlcParams(eta=good.eta, repetitions=good.repetitions, c1=good.c1,
                  c2=good.c2, eps=good.eps * 2, partition=good.partition,
                  mpc=good.mpc, seed=good.seed)


def test_params_warn_once_above_eta_three():
    ps = uniform_points(50, 3, seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SlcParams.for_point_set(ps, eta=3.5, seed=Seed(1))
    assert len(caught) == 1
    assert "eta <= 3" in str(caught[0].message)


def test_approximate_mst_single_point():
    ps = PointSet(points=np.array([[0.3, 0.4]]), metric=Metric.L2)
    tree, trace = approximate_mst(ps, SlcParams.for_point_set(ps, 0.5, Seed(1)))
    assert tree.edges == ()
    # one repetition of levels 0 and 1 (the root), then Boruvka's first and
    # last rounds on an edgeless graph
    assert [r.kind for r in trace.per_round] == (
        ["partition", "level", "level", "boruvka", "boruvka"])


def test_approximate_mst_rejects_hamming():
    ps = PointSet(points=np.array([[0.0], [1.0]]), metric=Metric.L0)
    with pytest.raises(UnsupportedMetricError):
        approximate_mst(ps, SlcParams.for_point_set(
            PointSet(points=np.array([[0.0], [1.0]]), metric=Metric.L2),
            0.5, Seed(1)))


def test_approximate_mst_collinear():
    ps = PointSet(points=np.arange(5, dtype=float).reshape(-1, 1), metric=Metric.L2)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(3))
    tree, _ = approximate_mst(ps, params)
    ws = tree.sorted_weights()
    assert len(ws) == 4
    assert np.all(ws <= 1.5)
    assert total_weight(tree) <= 4 * 1.5


def test_approximate_mst_chain_gap():
    ps = chain_with_gap(20)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(5))
    tree, _ = approximate_mst(ps, params)
    ws = tree.sorted_weights()
    assert 100.0 <= ws[-1] <= 1.5 * 100.0
    clustering = k_slc_from_mst(tree, 2, ps)
    assert clustering.objective >= 100.0
    assert clustering.labels[-1] != clustering.labels[0]
    assert len({clustering.labels[i] for i in range(19)}) == 1


def test_approximate_mst_duplicates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    ps = PointSet(points=pts, metric=Metric.L1)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(7))
    tree, _ = approximate_mst(ps, params)
    assert tree.sorted_weights()[0] == 0.0
    assert len(tree.edges) == 3


def test_approximate_mst_duplicate_points_merge_at_zero():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    ps = PointSet(points=pts, metric=Metric.L2)
    tree, _trace = approximate_mst(ps, SlcParams.for_point_set(ps, 0.5, Seed(7)))
    assert (0, 1, 0.0) in tree.edges
    assert len(tree.edges) == 2


def test_duplicate_owners_join_signed_zeros():
    # a point's owner is the lowest id with its coordinates: 0.0 and -0.0
    # are one coordinate, and a point 1e-300 away is another point
    pts = np.array([[0.5, -0.0], [0.0, 0.0], [0.5, 0.0], [-0.0, -0.0], [0.0, 1e-300],
                    [-0.0, 0.0]])
    assert duplicate_owners(pts).tolist() == [0, 1, 0, 1, 4, 1]
    ps = PointSet(points=np.array([[0.0, 1.0], [-0.0, 1.0]]), metric=Metric.L2)
    tree, _trace = approximate_mst(ps, SlcParams.for_point_set(ps, 0.5, Seed(1)))
    assert tree.edges == ((0, 1, 0.0),)


@pytest.mark.parametrize("metric", FLOAT_METRICS, ids=lambda m: m.value)
def test_duplicates_are_joined_once_before_the_level_passes(monkeypatch, metric):
    # 400 points on the 64 sites of {-1, 0, 1, 2}^3, zeros of either sign,
    # in two lockstep groups of repetitions: one owner search per call, no
    # level pass gets two equal points of one repetition, and every other
    # point joins its owner at weight 0
    n = 400
    pts = np.random.default_rng(43).choice([-1.0, -0.0, 0.0, 1.0, 2.0], (n, 3))
    ps = PointSet(points=pts, metric=metric)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(43), repetitions=3)
    searches, passes = [], []

    def owners(points):
        searches.append(len(points))
        return duplicate_owners(points)

    def step(ids, *args):
        rows = np.column_stack((ids // n, (pts[ids % n] + 0.0).view(np.int64)))
        passes.append(len(np.unique(rows, axis=0)) == len(ids))
        return level_step(ids, *args)

    monkeypatch.setattr(slc, "duplicate_owners", owners)
    monkeypatch.setattr(slc, "level_step", step)
    monkeypatch.setattr(slc, "_PASS_VALUES", 2 * n * 3)
    tree, _trace = approximate_mst(ps, params)
    assert searches == [n]
    # each group's bounded levels, and a root per repetition
    assert len(passes) == 2 * params.partition.levels + 3 and all(passes)
    # in Python -0.0 == 0.0, with one hash
    lowest = {}
    for i, row in enumerate(map(tuple, pts.tolist())):
        lowest.setdefault(row, i)
    star = {(lowest[row], i, 0.0) for i, row in enumerate(map(tuple, pts.tolist()))
            if lowest[row] != i}
    assert len(lowest) < 100 and star <= set(tree.edges)
    assert verify_per_edge_guarantee(tree, exact_mst(ps), 0.5).ok


def test_approximate_mst_all_identical():
    ps = PointSet(points=np.zeros((6, 2)), metric=Metric.L2)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(9))
    tree, _ = approximate_mst(ps, params)
    assert total_weight(tree) == 0.0
    assert len(tree.edges) == 5


@pytest.mark.parametrize("metric", FLOAT_METRICS, ids=lambda m: m.value)
@pytest.mark.parametrize("n, d", [(1, 2), (6, 2), (40, 3)])
def test_degenerate_inputs_run_the_pipeline(n, d, metric):
    ps = PointSet(points=np.full((n, d), 0.7), metric=metric)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(4))
    tree, trace = approximate_mst(ps, params)
    # the duplicate star joins every point to vertex 0 at weight 0
    assert tree.edges == tuple((0, i, 0.0) for i in range(1, n))
    kinds = [r.kind for r in trace.per_round]
    reps, levels = params.repetitions, params.partition.levels
    assert kinds.count("partition") == reps
    assert kinds.count("level") == reps * (levels + 1)
    assert kinds.count("boruvka") == trace.rounds - reps * (levels + 2)
    assert kinds.count("boruvka") <= round_bound(n)
    assert trace.max_words() <= params.mpc.space_s


def test_degenerate_input_over_budget_names_the_cell():
    ps = PointSet(points=np.zeros((50, 3)), metric=Metric.L2)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(4), mpc=MpcConfig(space_s=64))
    with pytest.raises(CapacityError) as info:
        approximate_mst(ps, params)
    assert str(info.value).startswith("repetition 0, level 0, cell")


def test_approximate_mst_deterministic():
    ps = uniform_points(200, 2, seed=33)
    params = SlcParams.for_point_set(ps, eta=1.0, seed=Seed(11))
    t1, _ = approximate_mst(ps, params)
    t2, _ = approximate_mst(ps, params)
    assert t1.edges == t2.edges


def test_lower_dominance_unconditional():
    for seed in (0, 1, 2):
        ps = uniform_points(150, 3, seed=40 + seed)
        params = SlcParams.for_point_set(ps, eta=1.0, seed=Seed(seed))
        tree, _ = approximate_mst(ps, params)
        exact = exact_mst(ps)
        wa = tree.sorted_weights()
        we = exact.sorted_weights()
        assert np.all(we <= wa * (1 + 1e-12) + 1e-300)


def test_k_slc_chain_gap_oracle():
    ps = chain_with_gap(12)
    tree = exact_mst(ps)
    clustering = k_slc_from_mst(tree, 2, ps)
    assert clustering.objective == 100.0
    assert clustering.labels[-1] == 1
    assert set(clustering.labels[:-1]) == {0}


def test_k_slc_k_equals_n():
    ps = uniform_points(9, 2, seed=50)
    tree = exact_mst(ps)
    clustering = k_slc_from_mst(tree, 9, ps)
    assert len(set(clustering.labels.tolist())) == 9
    assert clustering.objective == pytest.approx(float(tree.sorted_weights()[0]))


def test_k_slc_matches_exhaustive():
    for seed in range(4):
        ps = uniform_points(8, 2, seed=60 + seed)
        tree = exact_mst(ps)
        got = k_slc_from_mst(tree, 3, ps).objective
        assert got == pytest.approx(exhaustive_slc(ps, 3), abs=1e-12)


def test_k_slc_k1_undefined():
    ps = uniform_points(5, 2, seed=70)
    clustering = k_slc_from_mst(exact_mst(ps), 1, ps)
    assert math.isinf(clustering.objective)
    assert set(clustering.labels.tolist()) == {0}


def test_k_slc_rejects_bad_k():
    ps = uniform_points(5, 2, seed=71)
    tree = exact_mst(ps)
    with pytest.raises(InputError):
        k_slc_from_mst(tree, 6, ps)
    with pytest.raises(InputError):
        k_slc_from_mst(tree, 0, ps)


def test_verify_identical_trees():
    ps = uniform_points(40, 2, seed=80)
    tree = exact_mst(ps)
    report = verify_per_edge_guarantee(tree, tree, 0.5)
    assert report.ok
    assert report.max_ratio == 1.0


@pytest.mark.parametrize("eta", [-0.5, math.nan, math.inf])
def test_verify_refuses_negative_or_non_finite_eta(eta):
    tree = exact_mst(uniform_points(10, 2, seed=80))
    with pytest.raises(InputError, match="must be non-negative and finite"):
        verify_per_edge_guarantee(tree, tree, eta)
    assert verify_per_edge_guarantee(tree, tree, 0.0).ok


def test_verify_per_index_band():
    exact = SpanningTree(n_vertices=4, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)))
    approx = SpanningTree(n_vertices=4, edges=((0, 1, 1.0), (1, 2, 1.4), (2, 3, 2.0)))
    report = verify_per_edge_guarantee(approx, exact, 0.5)
    assert report.ok
    bad = SpanningTree(n_vertices=4, edges=((0, 1, 1.0), (1, 2, 1.6), (2, 3, 2.0)))
    report2 = verify_per_edge_guarantee(bad, exact, 0.5)
    assert report2.violations == [1]


def test_verify_full_pipeline_small():
    ps = uniform_points(300, 3, seed=90)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(13))
    tree, _ = approximate_mst(ps, params)
    report = verify_per_edge_guarantee(tree, exact_mst(ps), 0.5)
    assert report.ok


def test_slc_params_rejects_eps_outside_unit_interval():
    # constants this small used to give eps = 2.78 and 9.26 silently
    ps = uniform_points(600, 3, seed=50)
    for c in (0.001, 0.0003):
        with pytest.raises(InputError, match="c1 .* c2"):
            SlcParams.for_point_set(ps, 0.5, Seed(1), c1=c, c2=c)
    params = SlcParams.for_point_set(ps, 0.5, Seed(1), c1=0.003, c2=0.003)
    assert 0.0 < params.eps < 1.0


def test_capacity_error_names_repetition_level_and_cell():
    # theorem constants under the sublinear budget s = floor(15 n^0.75):
    # the root cell holds every point, 5 words each, against s/3 = 606
    n = 600
    ps = PointSet(points=np.random.default_rng(17).uniform(0.0, 1.0, (n, 3)),
                  metric=Metric.L2)
    cfg = MpcConfig(space_s=math.floor(15 * n ** 0.75))
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(17), repetitions=2, mpc=cfg)
    with pytest.raises(CapacityError) as caught:
        approximate_mst(ps, params)
    message = str(caught.value)
    assert message.startswith("repetition 0, root, cell (0, 0, 0): ")
    assert "needs 3000 words of working space, budget allows 606" in message


def _largest_cells(ps, params, rep):
    """Points in the largest cell of repetition `rep` at every level."""
    part = sample_partition(ps, params.partition, derive_seed(params.seed, f"repetition-{rep}"))
    base = base_cell_coords(part, ps.points)
    return [int(np.unique(coords_at_level(part, base, level), axis=0,
                          return_counts=True)[1].max())
            for level in range(params.partition.levels + 1)]


def test_capacity_error_names_lowest_refused_repetition():
    # s/3 = 266 words, 66 points of 4 words: repetition 1 has a level-8
    # cell of 72 points and repetition 0 none above 63, so in lockstep
    # repetition 1 is refused first; the error is still repetition 0's
    # refusal at the root, the one a run of one repetition after another
    # meets first
    ps = PointSet(points=np.random.default_rng(2).uniform(0.0, 1.0, (300, 2)),
                  metric=Metric.L2)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(2), repetitions=3,
                                     mpc=MpcConfig(space_s=800))
    largest = [_largest_cells(ps, params, rep) for rep in range(3)]
    assert max(largest[0][:-1]) * 4 <= 266 < largest[1][-2] * 4
    with pytest.raises(CapacityError) as caught:
        approximate_mst(ps, params)
    assert str(caught.value) == ("repetition 0, root, cell (0, 0): job 0 needs 1200 words "
                                 "of working space, budget allows 266")
    assert isinstance(caught.value.__cause__, CapacityError)


def test_capacity_error_names_the_first_refused_cell_of_a_level():
    # s/3 = 80 words, 20 points of 4 words: the first level with a larger
    # cell refuses the first of them in coordinate order, the order of its
    # jobs, and that is not the level's first cell
    ps = PointSet(points=np.random.default_rng(1).uniform(0.0, 1.0, (300, 2)),
                  metric=Metric.L2)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(1), repetitions=1,
                                     mpc=MpcConfig(space_s=240))
    part = sample_partition(ps, params.partition, derive_seed(params.seed, "repetition-0"))
    base = base_cell_coords(part, ps.points)
    for level in range(params.partition.levels):
        cells, counts = np.unique(coords_at_level(part, base, level), axis=0,
                                  return_counts=True)
        over = np.flatnonzero(counts * 4 > 80)
        if len(over):
            break
    job = int(over[0])
    assert level < params.partition.levels - 1 and job > 0
    with pytest.raises(CapacityError) as caught:
        approximate_mst(ps, params)
    assert str(caught.value) == (
        f"repetition 0, level {level}, cell {tuple(cells[job].tolist())}: job {job} needs "
        f"{counts[job] * 4} words of working space, budget allows 80")


def _lockstep_cases():
    """(points, metric, c1 = c2, word budget s or None for the default)."""
    rng = np.random.default_rng(40)
    blobs = rng.uniform(0.0, 1.0, (5, 3))[rng.integers(0, 5, 500)]
    return {
        "uniform-l1-practical": (rng.uniform(0.0, 1.0, (500, 3)), Metric.L1, 0.0015, 3300),
        "uniform-l2-theorem": (rng.uniform(0.0, 1.0, (500, 3)), Metric.L2, 1.0, None),
        "blobs-linf-practical": (blobs + rng.normal(0.0, 0.01, (500, 3)), Metric.LINF, 0.004,
                                 3300),
        "lattice-l2-practical": (rng.integers(0, 6, (500, 3)).astype(float), Metric.L2, 0.004,
                                 3300),
    }


@pytest.mark.parametrize("name", list(_lockstep_cases()))
def test_lockstep_equals_one_repetition_at_a_time(monkeypatch, name):
    # repetitions that share their bounded level passes give the tree and
    # every trace round of repetitions run one after another; at practical
    # constants the levels merge, the coverings shrink and s = 3300 packs
    # them onto several machines
    points, metric, c, space_s = _lockstep_cases()[name]
    ps = PointSet(points=points, metric=metric)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(41), repetitions=5, c1=c, c2=c,
                                     mpc=space_s and MpcConfig(space_s=space_s))
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return level_step(*args)

    monkeypatch.setattr(slc, "level_step", counted)
    tree, trace = approximate_mst(ps, params)
    shared = len(calls)
    monkeypatch.setattr(slc, "_PASS_VALUES", 1)
    alone_tree, alone_trace = approximate_mst(ps, params)
    # one pass per bounded level and one root per repetition, against
    # levels + 1 passes per repetition
    assert shared == params.partition.levels + 5
    assert len(calls) - shared == 5 * (params.partition.levels + 1)
    assert tree.edges == alone_tree.edges
    assert trace.to_json_lines() == alone_trace.to_json_lines()
    if space_s:
        assert max(r.machines_used for r in trace.per_round if r.kind == "level") > 1
