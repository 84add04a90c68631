import math
import tracemalloc

import numpy as np
import pytest

from mpslc.core import (
    _CHUNK,
    InputError,
    Metric,
    PointSet,
    Seed,
    SparsePoint,
    derive_seed,
    edge_order,
    pair_distances,
    rng_stream,
    row_runs,
    spanning_forest,
)
from mpslc.hardness import GraphInstance, gen_cycle_vectors
from mpslc.oracle import kruskal_edges

from conftest import FLOAT_METRICS, sparse_distance


def _reduce(a, b, metric: Metric, axis: int):
    """Distances between broadcast rows of a and b along `axis`; L0 counts
    coordinates that differ under exact equality."""
    if metric is Metric.L0:
        return np.count_nonzero(a != b, axis=axis).astype(np.float64)
    d = a - b
    if metric is Metric.L1:
        return np.sum(np.abs(d), axis=axis)
    if metric is Metric.L2:
        return np.sqrt(np.sum(d * d, axis=axis))
    return np.max(np.abs(d), axis=axis)


def distance(u, v, metric: Metric) -> float:
    """Exact distance between two equal-dimension vectors under the metric.

    L0 counts differing coordinates (exact equality test), LINF is the
    maximum absolute coordinate difference.
    """
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(_reduce(a, b, metric, -1)) if a.size else 0.0


def test_distance_l2_pythagorean():
    assert distance([0, 0], [3, 4], Metric.L2) == 5.0


def test_distance_l0_single_difference():
    assert distance([1, 2], [1, 3], Metric.L0) == 1.0


def test_distance_l1_cycle_adjacent_pair():
    # adjacent hardness-cycle vectors at xi=1 sit at L1 distance 2|1-xi|+2|xi|
    vs = gen_cycle_vectors(GraphInstance.one_cycle(6), xi=1.0, metric=Metric.L1)
    a, b = vs[0].densify(), vs[1].densify()
    assert distance(a, b, Metric.L1) == pytest.approx(2.0, abs=1e-12)


def test_distance_dimension_mismatch():
    with pytest.raises(InputError):
        distance([1, 2], [1, 2, 3], Metric.L2)


def test_distance_linf():
    assert distance([0, 0, 0], [1, -4, 2], Metric.LINF) == 4.0


def test_sparse_distance_identical():
    u = SparsePoint(entries=((0, 1.0),), dim=4)
    assert sparse_distance(u, u, Metric.L1) == 0.0


def test_sparse_distance_single_overlap_l2():
    u = SparsePoint(entries=((0, 1.0), (1, 1.0)), dim=5)
    v = SparsePoint(entries=((1, 1.0), (2, 1.0)), dim=5)
    assert sparse_distance(u, v, Metric.L2) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_sparse_distance_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(50):
        def rand_sparse():
            idx = sorted(rng.choice(20, size=3, replace=False))
            return SparsePoint(
                entries=tuple((int(i), float(rng.normal())) for i in idx), dim=20
            )
        u, v = rand_sparse(), rand_sparse()
        for metric in (Metric.L0, Metric.L1, Metric.L2, Metric.LINF):
            want = distance(u.densify(), v.densify(), metric)
            assert sparse_distance(u, v, metric) == pytest.approx(want, abs=1e-12)


def test_sparse_distance_dim_mismatch():
    u = SparsePoint(entries=((0, 1.0),), dim=3)
    v = SparsePoint(entries=((0, 1.0),), dim=4)
    with pytest.raises(InputError):
        sparse_distance(u, v, Metric.L1)


def test_sparse_point_validation():
    with pytest.raises(InputError):
        SparsePoint(entries=((1, 1.0), (0, 1.0)), dim=3)
    with pytest.raises(InputError):
        SparsePoint(entries=((0, 0.0),), dim=3)
    with pytest.raises(InputError):
        SparsePoint(entries=((5, 1.0),), dim=3)


def test_rng_stream_replays():
    a = rng_stream(Seed(123), "alpha").uniform(size=100)
    b = rng_stream(Seed(123), "alpha").uniform(size=100)
    assert np.array_equal(a, b)


def test_rng_stream_labels_differ():
    a = rng_stream(Seed(123), "alpha").uniform(size=100)
    b = rng_stream(Seed(123), "beta").uniform(size=100)
    assert not np.array_equal(a, b)


def test_rng_stream_uniform_mean():
    draws = rng_stream(Seed(7), "mean-check").uniform(size=100_000)
    assert 0.49 <= draws.mean() <= 0.51


def test_derive_seed_distinct_and_stable():
    s = Seed(99)
    assert derive_seed(s, "x") == derive_seed(s, "x")
    assert derive_seed(s, "x") != derive_seed(s, "y")


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5, 5, (10_000, 3, 4))
    ints = np.floor(pts)
    for metric in FLOAT_METRICS:
        d_ab = _batch(pts[:, 0], pts[:, 1], metric)
        d_bc = _batch(pts[:, 1], pts[:, 2], metric)
        d_ac = _batch(pts[:, 0], pts[:, 2], metric)
        assert np.all(d_ac <= d_ab + d_bc + 1e-9)
    d_ab = _batch(ints[:, 0], ints[:, 1], Metric.L0)
    d_bc = _batch(ints[:, 1], ints[:, 2], Metric.L0)
    d_ac = _batch(ints[:, 0], ints[:, 2], Metric.L0)
    assert np.all(d_ac <= d_ab + d_bc)


def _batch(a, b, metric):
    gap = a - b
    if metric is Metric.L0:
        return (a != b).sum(axis=1)
    if metric is Metric.L1:
        return np.abs(gap).sum(axis=1)
    if metric is Metric.L2:
        return np.sqrt((gap * gap).sum(axis=1))
    return np.abs(gap).max(axis=1)


def test_distance_permutation_invariant():
    rng = np.random.default_rng(3)
    u = rng.normal(size=8)
    v = rng.normal(size=8)
    perm = rng.permutation(8)
    for metric in (Metric.L0, Metric.L1, Metric.L2, Metric.LINF):
        assert distance(u, v, metric) == pytest.approx(
            distance(u[perm], v[perm], metric), abs=1e-12
        )


def test_pair_distances_agree_with_scalar():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(11, 3))
    u, v = (idx.ravel() for idx in np.meshgrid(np.arange(6), np.arange(6, 11)))
    for metric in (Metric.L0, Metric.L1, Metric.L2, Metric.LINF):
        got = pair_distances(pts, u, v, metric)
        for k in range(len(u)):
            assert got[k] == pytest.approx(
                distance(pts[u[k]], pts[v[k]], metric), abs=1e-12
            )


ALL_METRICS = (Metric.L0, Metric.L1, Metric.L2, Metric.LINF)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 192, _CHUNK + 5])
def test_pair_distances_equal_one_unchunked_reduction(d):
    # lengths around the chunk of _CHUNK // d pairs, and a d wider than a
    # chunk, give the weights of one reduction over all pairs, bit for bit;
    # below 8 columns the chunks are reduced column by column, from 8 on
    # along the rows. Rows of magnitude 1e300 and 1e-300 beside rows of
    # magnitude 1 round differently in another order of summation
    step = max(1, _CHUNK // d)
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(40, d))
    pts[rng.random(pts.shape) < 0.3] = 0.5
    pts[:6] *= 1e300
    pts[6:12] *= 1e-300
    for m in (0, 1, step - 1, step, step + 1, 3 * step + 2):
        u, v = rng.integers(0, 40, (2, m))
        for metric in ALL_METRICS:
            with np.errstate(over="ignore", under="ignore"):
                got = pair_distances(pts, u, v, metric)
                want = _reduce(pts[u], pts[v], metric, 1)
            assert got.dtype == np.float64 and got.shape == (m,)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_pair_distances_memory_bounded():
    # one gathered endpoint block of 50k pairs at d = 192 is 77 MB
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(400, 192))
    u, v = rng.integers(0, 400, (2, 50_000))
    # and one of 500k pairs at d = 3, reduced column by column, is 12 MB
    low = rng.normal(size=(400, 3))
    a, b = rng.integers(0, 400, (2, 500_000))
    tracemalloc.start()
    try:
        for metric in ALL_METRICS:
            pair_distances(pts, u, v, metric)
            pair_distances(low, a, b, metric)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def lexsort_runs(keys):
    """row_runs by one lexsort over every column."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return order, starts


def random_column(rng, n):
    """Small ranges with ties, full int64 draws, int64 extremes, float bit
    patterns (signed zeros among them) or a constant."""
    lim = np.iinfo(np.int64)
    kind = rng.integers(0, 5)
    if kind == 0:
        return rng.integers(-3, 3, n)
    if kind == 1:
        return rng.integers(lim.min, lim.max, n, endpoint=True)
    if kind == 2:
        return rng.choice([lim.min, lim.max, 0], n)
    if kind == 3:
        floats = [-1.5, -0.0, 0.0, 0.25, 1e300, -1e-300, rng.normal()]
        return rng.choice(floats, n).view(np.int64)
    return np.full(n, rng.integers(-10, 10))


def test_row_runs_matches_one_full_lexsort():
    rng = np.random.default_rng(12)
    cases = [np.empty((0, 3), np.int64), np.empty((0, 1), np.int64),
             np.zeros((1, 4), np.int64), rng.integers(-5, 5, (30, 1)),
             np.full((20, 6), 7, np.int64),
             rng.integers(0, 3, (400, 193)),
             rng.normal(size=(400, 193)).view(np.int64),
             rng.integers(0, 2, (400, 193))[rng.integers(0, 50, 400)]]
    for _ in range(3000):
        n, d = int(rng.integers(0, 40)), int(rng.integers(1, 9))
        keys = np.column_stack([random_column(rng, n) for _ in range(d)])
        if rng.random() < 0.5:
            # repeated rows
            keys = keys[rng.integers(0, max(1, n // 3), n)] if n else keys
        cases.append(keys.astype(np.int64))
    for keys in cases:
        order, starts = row_runs(keys)
        want_order, want_starts = lexsort_runs(keys)
        assert order.tolist() == want_order.tolist()
        assert starts.dtype == bool and starts.tolist() == want_starts.tolist()


def _edge_order_cases():
    """(u, v, w) arrays whose (w, u, v) order has ties to break."""
    rng = np.random.default_rng(13)
    # lattice weights: many pairs at each of a few distances, and repeated
    # (u, v, w) triples, whose order only stability decides
    lattice = np.indices((6, 6, 6)).reshape(3, -1).T.astype(np.float64)
    u, v = rng.integers(0, len(lattice), (2, 3000))
    u, v = np.minimum(u, v), np.maximum(u, v)
    w = pair_distances(lattice, u, v, Metric.L2)
    cases = {"lattice": (u, v, w),
             "repeated": (np.tile(u[:50], 3), np.tile(v[:50], 3), np.tile(w[:50], 3))}
    # a lockstep pass: repetition j's copy of a pair has ids offset by j * n
    # and the same weight as every other repetition's copy
    n, reps = 500, 4
    u, v = rng.integers(0, n, (2, 800))
    u, v = np.minimum(u, v), np.maximum(u, v) + 1
    w = rng.integers(0, 5, 800) / 8.0
    at = rng.permutation(reps * 800)
    offset = np.repeat(np.arange(reps) * n, 800)
    cases["lockstep"] = (np.tile(u, reps)[at] + offset[at], np.tile(v, reps)[at] + offset[at],
                         np.tile(w, reps)[at])
    # ids near the packing limit: the key times the pair count fits 63
    # bits, and one more bit does not; ids near the int64 limit
    for name, bits in (("fits", 28), ("overflows", 29)):
        u, v = rng.integers(0, 2**bits, (2, 64))
        u[:2], v[:2] = (0, 2**bits - 1), (0, 2**bits - 1)
        cases[name] = (u, v, rng.integers(0, 3, 64) / 2.0)
    top = np.iinfo(np.int64).max
    cases["int64-top"] = (top - rng.integers(0, 9, 64), top - rng.integers(0, 9, 64),
                          rng.integers(0, 3, 64) / 2.0)
    # signed zeros compare equal, so (u, v) decides between them
    cases["signed-zeros"] = (rng.integers(0, 9, 40), rng.integers(0, 9, 40),
                             np.where(rng.random(40) < 0.5, -0.0, 0.0))
    cases["one"] = (np.array([3]), np.array([5]), np.array([1.0]))
    cases["none"] = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    return cases


@pytest.mark.parametrize("name", list(_edge_order_cases()))
def test_edge_order_equals_lexsort(name):
    u, v, w = _edge_order_cases()[name]
    u, v = u.astype(np.int64), v.astype(np.int64)
    if name in ("fits", "overflows"):
        spans = (int(u.max()) - int(u.min()) + 1) * (int(v.max()) - int(v.min()) + 1)
        assert (spans * len(u) < 2**63) == (name == "fits")
    assert edge_order(u, v, w).tolist() == np.lexsort((v, u, w)).tolist()


def test_point_set_validation():
    with pytest.raises(InputError):
        PointSet(points=np.empty((0, 2)), metric=Metric.L2)
    with pytest.raises(InputError):
        PointSet(points=np.array([[np.inf, 0.0]]), metric=Metric.L2)
    ps = PointSet(points=np.array([[1.0, 2.0]]), metric=Metric.L1)
    assert ps.n == 1 and ps.dim == 2


def test_seed_range():
    with pytest.raises(InputError):
        Seed(-1)
    with pytest.raises(InputError):
        Seed(2**64)


def test_spanning_forest_matches_oracle_kruskal():
    rng = np.random.default_rng(11)
    cases = [(1, 0), (1, 3), (5, 0)]
    cases += [(int(rng.integers(2, 40)), int(rng.integers(0, 80))) for _ in range(200)]
    for n, m in cases:
        # m < n leaves ids isolated; repeated draws give self-loops and
        # parallel edges
        a = rng.integers(0, n, m)
        b = rng.integers(0, n, m)
        taken, labels, phases = spanning_forest(a, b, n)
        oracle = kruskal_edges(n, [(a[k], b[k], k) for k in range(m)])
        assert taken.tolist() == sorted(int(w) for _u, _v, w in oracle)
        # the labels are the oracle forest's components, named by minimum id
        assert all(labels[u] == labels[v] for u, v, _w in oracle)
        assert len(np.unique(labels)) == n - len(oracle)
        assert all(labels[x] == np.flatnonzero(labels == labels[x])[0] for x in range(n))
        assert sum(phases) == len(taken)
        assert len(phases) <= math.ceil(math.log2(n))
